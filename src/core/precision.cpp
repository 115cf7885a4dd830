#include "core/precision.hpp"

namespace bltc {

const char* precision_policy_name(PrecisionPolicy policy) {
  switch (policy) {
    case PrecisionPolicy::kFp64:
      return "fp64";
    case PrecisionPolicy::kMixed:
      return "mixed";
    case PrecisionPolicy::kFp32Far:
      return "fp32far";
  }
  return "unknown";
}

}  // namespace bltc
