// The production kernel build: the bodies in kernels_impl.inc with default
// (auto-vectorizing) codegen.

#include "lira/common/kernels.h"

#include <cstdint>

namespace lira::kernels {

#include "lira/common/kernels_impl.inc"

}  // namespace lira::kernels
