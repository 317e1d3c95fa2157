// The scalar reference build of the hot-loop kernels: the same bodies as
// lira::kernels (src/lira/common/kernels_impl.inc), compiled with
// vectorization off so every loop runs one lane at a time. kernels_test
// compares every production kernel against these bit for bit.

#ifndef LIRA_TESTS_ORACLE_REF_KERNELS_H_
#define LIRA_TESTS_ORACLE_REF_KERNELS_H_

#include "lira/common/kernels.h"

namespace lira::kernels::ref {

// Declared through decltype, so each reference kernel has exactly the
// production kernel's signature.
decltype(kernels::ClampPoints) ClampPoints;
decltype(kernels::L1SkipMask) L1SkipMask;
decltype(kernels::RectWalkDistances) RectWalkDistances;
decltype(kernels::DeviationFilter) DeviationFilter;
decltype(kernels::DeviationFilterUniform) DeviationFilterUniform;
decltype(kernels::PredictPositions) PredictPositions;
decltype(kernels::UnpackFrame) UnpackFrame;
decltype(kernels::AddI64) AddI64;
decltype(kernels::LocateCells) LocateCells;
decltype(kernels::RelocateSkipMask) RelocateSkipMask;

}  // namespace lira::kernels::ref

#endif  // LIRA_TESTS_ORACLE_REF_KERNELS_H_
