#include <stdexcept>
#include <string>

#include "simnet/config.hpp"

namespace pfar::simnet {

// pfar-lint: allow(contract-coverage) total switch over the enum; the "?" fallthrough is the documented answer for out-of-range values
const char* to_string(SimEngine engine) {
  switch (engine) {
    case SimEngine::kFastForward: return "horizon";
    case SimEngine::kFlow: return "flow";
  }
  return "?";
}

// pfar-lint: allow(contract-coverage) parser: rejecting an unknown name via std::invalid_argument IS the contract (CLI flags arrive here raw)
SimEngine engine_from_string(const std::string& name) {
  if (name == "horizon") return SimEngine::kFastForward;
  if (name == "flow") return SimEngine::kFlow;
  throw std::invalid_argument("unknown engine '" + name +
                              "' (expected horizon|flow)");
}

}  // namespace pfar::simnet
