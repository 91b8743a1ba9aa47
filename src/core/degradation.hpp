#pragma once

#include <string>
#include <vector>

#include "common/status.hpp"
#include "tn/faults.hpp"

namespace pcnn::core {

/// One pyramid level the detector had to abandon.
struct LevelSkip {
  int level = 0;        ///< pyramid level index
  long windowsLost = 0; ///< windows that level would have scanned
  Status status;        ///< why the level was poisoned
};

/// Structured account of everything a degraded-but-surviving operation had
/// to give up: fault events the TrueNorth simulator injected while it ran,
/// pyramid levels the detector skipped, and windows whose features could
/// not be extracted or scored. Surfaced by GridDetector::detect(...,
/// DegradationReport*) and PartitionedPipeline::scoreAllDegraded so
/// callers can quantify quality loss instead of discovering it as a crash.
struct DegradationReport {
  /// Fault events injected during the operation (delta of
  /// tn::globalFaultCounts() across it; zeros in fault-free runs).
  tn::FaultCounts faults;
  int levelsSkipped = 0;
  long windowsLost = 0;
  /// Per-level detail for skipped pyramid levels (capped; see kMaxSkips).
  std::vector<LevelSkip> skips;

  /// Cap on stored per-level detail so a pathologically failing extractor
  /// cannot balloon the report; levelsSkipped keeps the true count.
  static constexpr std::size_t kMaxSkips = 32;

  bool degraded() const {
    return levelsSkipped > 0 || windowsLost > 0 || faults.total() > 0;
  }

  void addSkip(int level, long windowsLostAtLevel, Status status);
  void merge(const DegradationReport& other);

  /// One-line human-readable summary, e.g.
  /// "degraded: 2 levels skipped, 1536 windows lost, 412 fault events
  /// (drops=400 dead=12)" or "healthy".
  std::string summary() const;
};

/// Attributes to `report` the simulator fault events raised while this
/// scope is alive (the tn::globalFaultCounts() delta across it). A null
/// report costs nothing.
class FaultAttribution {
 public:
  explicit FaultAttribution(DegradationReport* report)
      : report_(report),
        before_(report != nullptr ? tn::globalFaultCounts()
                                  : tn::FaultCounts{}) {}
  ~FaultAttribution() {
    if (report_ != nullptr) report_->faults = tn::globalFaultCounts() - before_;
  }
  FaultAttribution(const FaultAttribution&) = delete;
  FaultAttribution& operator=(const FaultAttribution&) = delete;

 private:
  DegradationReport* report_;
  tn::FaultCounts before_;
};

}  // namespace pcnn::core
