// Machine-stamp stub. The library has one portable code path for its
// bitset word loops (util/dynamic_bitset.h) and no vector kernels; this
// header exists only so that benchmark stamps which print the active
// kernel table's name keep compiling. The name is always "scalar".
#ifndef KBIPLEX_UTIL_SIMD_H_
#define KBIPLEX_UTIL_SIMD_H_

namespace kbiplex {
namespace simd {

struct Kernels {
  const char* name;
};

inline const Kernels& Active() {
  static constexpr Kernels kScalar{"scalar"};
  return kScalar;
}

}  // namespace simd
}  // namespace kbiplex

#endif  // KBIPLEX_UTIL_SIMD_H_
