// Scalar reference kernel build. CMake compiles this TU with
// -fno-tree-vectorize -fno-tree-slp-vectorize (GCC 12 has no per-loop
// `novector` pragma), so the loops execute one lane at a time.

#include "oracle/ref_kernels.h"

#include <cstdint>

namespace lira::kernels::ref {

#include "lira/common/kernels_impl.inc"

}  // namespace lira::kernels::ref
