#include "obs/provenance.hpp"

#include <thread>

#include "common/env.hpp"
#include "obs/obs.hpp"

namespace pcnn::obs {

/// Short HEAD SHA (plus "-dirty") of the checkout this binary was built
/// from, or "unknown"; defined in the git_sha.cpp the build generates.
extern const char kBuildGitSha[];

namespace {

std::string envOrUnset(const char* name) {
  return env::str(name, "unset");
}

}  // namespace

Provenance provenance() {
  Provenance p;
  p.gitSha = kBuildGitSha;
  p.hardwareThreads = std::thread::hardware_concurrency();
  p.simdEnv = envOrUnset("PCNN_SIMD");
  p.numThreadsEnv = envOrUnset("PCNN_NUM_THREADS");
  p.temporalEnv = envOrUnset("PCNN_TEMPORAL");
  p.faultsEnv = envOrUnset("PCNN_FAULTS");
  p.tnEngineEnv = envOrUnset("PCNN_TN_ENGINE");
  p.serveQueueEnv = envOrUnset("PCNN_SERVE_QUEUE");
  p.serveDeadlineEnv = envOrUnset("PCNN_SERVE_DEADLINE_MS");
  p.obsBuild = kCompiledIn ? "on" : "off";
  return p;
}

std::string provenanceJson(
    const Provenance& p,
    const std::vector<std::pair<std::string, std::string>>& extra) {
  std::string out = "{";
  out += "\"git_sha\": \"" + p.gitSha + "\"";
  out += ", \"hardware_threads\": " + std::to_string(p.hardwareThreads);
  out += ", \"simd_env\": \"" + p.simdEnv + "\"";
  out += ", \"num_threads_env\": \"" + p.numThreadsEnv + "\"";
  out += ", \"temporal_env\": \"" + p.temporalEnv + "\"";
  out += ", \"faults_env\": \"" + p.faultsEnv + "\"";
  out += ", \"tn_engine_env\": \"" + p.tnEngineEnv + "\"";
  out += ", \"serve_queue_env\": \"" + p.serveQueueEnv + "\"";
  out += ", \"serve_deadline_ms_env\": \"" + p.serveDeadlineEnv + "\"";
  out += ", \"obs_build\": \"" + p.obsBuild + "\"";
  for (const auto& [key, value] : extra) {
    out += ", \"" + key + "\": \"" + value + "\"";
  }
  out += "}";
  return out;
}

}  // namespace pcnn::obs
