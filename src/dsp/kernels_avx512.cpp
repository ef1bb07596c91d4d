// AVX-512 tier of the dispatched batch kernels (stft_power_batch,
// mel_bands_batch): the templated body of dsp/batch_body.hpp on one
// eight-lane ZMM register. This translation unit is compiled with
// -mavx512f -ffp-contract=off (src/CMakeLists.txt): contract=off is
// load-bearing, since AVX-512F has fused multiply-adds the compiler would
// otherwise form from the body's mul/add pairs, changing rounding versus
// the scalar tier. The tier's GEMM and Welford entries are the AVX2
// functions (simd_kernels.cpp), so nothing else runs here.
//
// On targets where AVX-512F is unavailable at compile time the entry
// points forward to the AVX2 tier, keeping the kernel table total.

#include "dsp/simd_kernels_detail.hpp"

#if defined(__AVX512F__)
// gcc 12 leaves the pass-through operand of the unmasked AVX-512
// intrinsics (insertf64x4, unpacklo/hi) as a self-initialised
// "undefined" vector, which -Wmaybe-uninitialized reports at the header
// line once they are inlined here.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop

#include "dsp/batch_body.hpp"

namespace beesim::dsp::detail {
namespace {

/// One __m512d: the AVX-512 tier's batch-kernel lanes.
struct Avx512Lanes {
  static constexpr std::size_t kWidth = 8;
  __m512d v;

  static Avx512Lanes load(const double* p) { return {_mm512_loadu_pd(p)}; }
  static Avx512Lanes broadcast(double x) { return {_mm512_set1_pd(x)}; }
  static void load_pairs(const double* const* frames, std::size_t i,
                         Avx512Lanes& a, Avx512Lanes& b) {
    // Frames 0, 2, 4, 6 and 1, 3, 5, 7 each give one 128-bit lane of a
    // register; unpacking the two gives lane l's sample i in a and
    // i + 1 in b. The zero-extending widen keeps the upper half defined.
    const auto pairs = [&](std::size_t f) {
      const __m256d lo = _mm256_insertf128_pd(
          _mm256_castpd128_pd256(_mm_loadu_pd(frames[f] + i)),
          _mm_loadu_pd(frames[f + 2] + i), 1);
      const __m256d hi = _mm256_insertf128_pd(
          _mm256_castpd128_pd256(_mm_loadu_pd(frames[f + 4] + i)),
          _mm_loadu_pd(frames[f + 6] + i), 1);
      return _mm512_insertf64x4(_mm512_zextpd256_pd512(lo), hi, 1);
    };
    const __m512d even = pairs(0);
    const __m512d odd = pairs(1);
    a = {_mm512_unpacklo_pd(even, odd)};
    b = {_mm512_unpackhi_pd(even, odd)};
  }
  void store(double* p) const { _mm512_storeu_pd(p, v); }
};

inline Avx512Lanes operator+(Avx512Lanes a, Avx512Lanes b) {
  return {_mm512_add_pd(a.v, b.v)};
}
inline Avx512Lanes operator-(Avx512Lanes a, Avx512Lanes b) {
  return {_mm512_sub_pd(a.v, b.v)};
}
inline Avx512Lanes operator*(Avx512Lanes a, Avx512Lanes b) {
  return {_mm512_mul_pd(a.v, b.v)};
}

}  // namespace

void stft_power_batch_avx512(const StftTables& t, const double* const* frames,
                             double* scratch) {
  stft_power_batch_body<Avx512Lanes>(t, frames, scratch);
}

void mel_bands_batch_avx512(const BandTables& t, const double* power,
                            std::size_t count, double* out,
                            std::size_t stride) {
  mel_bands_batch_body<Avx512Lanes>(t, power, count, out, stride);
}

}  // namespace beesim::dsp::detail

#else  // !__AVX512F__: forward to the AVX2 tier

namespace beesim::dsp::detail {

void stft_power_batch_avx512(const StftTables& t, const double* const* frames,
                             double* scratch) {
  stft_power_batch_avx2(t, frames, scratch);
}

void mel_bands_batch_avx512(const BandTables& t, const double* power,
                            std::size_t count, double* out,
                            std::size_t stride) {
  mel_bands_batch_avx2(t, power, count, out, stride);
}

}  // namespace beesim::dsp::detail

#endif
