#include "steer/policy.hpp"

namespace vcsteer::steer {

const char* scheme_name(Scheme scheme) {
  switch (scheme) {
    case Scheme::kOp: return "OP";
    case Scheme::kOneCluster: return "one-cluster";
    case Scheme::kOb: return "OB";
    case Scheme::kRhop: return "RHOP";
    case Scheme::kVc: return "VC";
    case Scheme::kParallelOp: return "OP-parallel";
  }
  return "?";
}

}  // namespace vcsteer::steer
