// IDEM's default acceptance test (paper Section 5.1), built from
// IdemConfig. The tests themselves live in the replication core so other
// protocols (e.g. SMaRt+PR) can reuse them without depending on IDEM.
#pragma once

#include <memory>

#include "core/acceptance.hpp"
#include "idem/config.hpp"

namespace idem::core {

/// AqmPrioritized as the paper evaluates it: probabilistic rejection of
/// non-prioritized clients from 60% of r, ceil(clients / r) client groups
/// of at most r clients each, and a PRF seed every replica shares so they
/// tend toward unanimous decisions.
inline std::unique_ptr<AcceptanceTest> make_default_acceptance(const IdemConfig& config,
                                                               std::size_t client_count) {
  AqmPrioritized::Params params;
  params.start_fraction = 0.6;
  params.time_slice = config.aqm_time_slice;
  params.prf_seed = 0x1DE4'5EEDull;
  const std::size_t r = config.reject_threshold;
  params.group_count = r > 0 && client_count > 0 ? (client_count + r - 1) / r : 1;
  return std::make_unique<AqmPrioritized>(params);
}

}  // namespace idem::core
