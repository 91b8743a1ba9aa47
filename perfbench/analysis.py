"""Statistics and trace analysis for the pcnn regression benchmark.

Pure functions over plain Python data, so the harness self-tests
(perfbench/test_harness.py) can check them without building anything.
"""

import math
import statistics

# A percentile is reported only when at least this many samples lie beyond
# it, so a p90 needs >= 100 samples and a p50 >= 20.
MIN_TAIL_SAMPLES = 10

# Spans whose self time belongs to the span that opened them: the thread
# pool's per-job span covers the parallel part of whatever stage called
# parallelFor, so that time is charged to the stage.
TRANSPARENT_SPANS = frozenset({"pool.job"})

# Share of a root span's duration that may lie outside every child span
# before the stage table counts as not adding up.
ADD_UP_TOLERANCE = 0.05


def percentile(values, q):
    """Nearest-rank q-quantile (0 < q < 1) of `values`, or None when fewer
    than MIN_TAIL_SAMPLES samples lie beyond it."""
    n = len(values)
    rank = math.ceil(q * n)  # 1-based rank of the quantile sample
    if n == 0 or n - rank < MIN_TAIL_SAMPLES:
        return None
    return sorted(values)[max(rank, 1) - 1]


def relative_spread(values):
    """Inter-quartile distance over the median, the statistic the benchmark's
    bounds are judged against."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def self_times(events, transparent=TRANSPARENT_SPANS):
    """Nests complete-span trace events per thread by time containment and
    returns one dict per span: the event, its parent's index (None for a
    root) and its self time -- its duration minus the part its child spans
    cover. A transparent span keeps self time 0 and hands its own to its
    nearest non-transparent ancestor.

    `events` are dicts with name, tid, ts and dur (microseconds), as in
    Chrome trace_event "X" records."""
    order = sorted(range(len(events)),
                   key=lambda i: (events[i]["tid"], events[i]["ts"],
                                  -events[i]["dur"]))
    nodes = [None] * len(events)
    stack = []  # indices of open spans on the current thread
    tid = None
    eps = 1e-3
    for i in order:
        e = events[i]
        if e["tid"] != tid:
            tid, stack = e["tid"], []
        end = e["ts"] + e["dur"]
        while stack and events[stack[-1]]["ts"] + events[stack[-1]]["dur"] \
                < end - eps:
            stack.pop()
        parent = stack[-1] if stack else None
        nodes[i] = {"event": e, "parent": parent, "self": e["dur"]}
        if parent is not None:
            nodes[parent]["self"] -= e["dur"]
        stack.append(i)
    for node in nodes:
        if node["event"]["name"] not in transparent:
            continue
        owner = node["parent"]
        while owner is not None and \
                nodes[owner]["event"]["name"] in transparent:
            owner = nodes[owner]["parent"]
        if owner is not None:
            nodes[owner]["self"] += node["self"]
        node["self"] = 0.0
    return nodes


def self_time_by_name(nodes):
    """Total self time (microseconds) and span count per span name."""
    totals, counts = {}, {}
    for node in nodes:
        name = node["event"]["name"]
        totals[name] = totals.get(name, 0.0) + node["self"]
        counts[name] = counts.get(name, 0) + 1
    return totals, counts


def has_ancestor(nodes, index, name):
    parent = nodes[index]["parent"]
    while parent is not None:
        if nodes[parent]["event"]["name"] == name:
            return True
        parent = nodes[parent]["parent"]
    return False


def unexplained_share(nodes, root_names):
    """Share of the root spans' total duration that no child span covers
    (the roots' own self time). Returns None when there is no such root."""
    total = own = 0.0
    for node in nodes:
        if node["event"]["name"] in root_names and node["parent"] is None:
            total += node["event"]["dur"]
            own += node["self"]
    return own / total if total > 0 else None
