// Batch varint column kernels (see wire.h for the dispatch contract).
//
// The v4 trace codec stores whole columns of LEB128 varints: seq deltas,
// string ids, ordinals, zig-zag timestamps.  Decoding them one strict
// read_varint() at a time is a chain of data-dependent branches per byte;
// these kernels instead classify a whole word (SWAR) or vector register
// (SSE/AVX2/NEON) of input at once.  The dominant shape in real columns --
// runs of single-byte values -- decodes at a load/widen/store per block.
// Mixed regions fall back a level at a time (vector -> SWAR -> strict
// scalar), and *every* non-fast-path byte sequence ends in
// wire_detail::decode_varint_strict, so truncation and overlong rejection
// are decided by exactly one piece of code no matter which kernel ran.
//
// Variant selection: the widest compiled-in (CAUSEWAY_SIMD) kernel the CPU
// reports at runtime, overridable via CAUSEWAY_KERNEL or
// force_varint_kernel().  All variants are bit-exact by construction; the
// differential test (wire_kernel_test) enforces it over adversarial input.
#include "common/wire.h"

#include <atomic>
#include <bit>
#include <cstdlib>

#include "common/compress.h"

#if !defined(CAUSEWAY_SIMD)
#define CAUSEWAY_SIMD 0
#endif

#if CAUSEWAY_SIMD && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define CAUSEWAY_KERNEL_X86 1
#include <immintrin.h>
#else
#define CAUSEWAY_KERNEL_X86 0
#endif

#if CAUSEWAY_SIMD && defined(__aarch64__)
#define CAUSEWAY_KERNEL_NEON 1
#include <arm_neon.h>
#else
#define CAUSEWAY_KERNEL_NEON 0
#endif

namespace causeway {
namespace {

constexpr std::uint64_t kContMask = 0x8080808080808080ULL;

inline std::uint64_t load_le64(const std::uint8_t* p) {
  std::uint64_t w;
  std::memcpy(&w, p, sizeof(w));
  return w;  // SWAR math below assumes little-endian byte order
}

// Compacts the low 7 bits of each of the 8 bytes of `x` (continuation bits
// already cleared) into one 56-bit value: byte k's payload moves from bit
// 8k to bit 7k.  Three shift-mask rounds, no per-byte loop.
constexpr std::uint64_t compact7x8(std::uint64_t x) {
  x = (x & 0x007f007f007f007fULL) | ((x & 0x7f007f007f007f00ULL) >> 1);
  x = (x & 0x00003fff00003fffULL) | ((x & 0x3fff00003fff0000ULL) >> 2);
  x = (x & 0x000000000fffffffULL) | ((x & 0x0fffffff00000000ULL) >> 4);
  return x;
}

// Inverse of compact7x8: spreads the low 8 groups of 7 bits of `x` across
// the 8 bytes of the result -- group k's payload moves from bit 7k to bit
// 8k, leaving every byte's high (continuation) bit clear.  Three
// shift-mask rounds, no per-byte loop.
constexpr std::uint64_t expand7x8(std::uint64_t x) {
  x = (x & 0x000000000fffffffULL) | ((x << 4) & 0x0fffffff00000000ULL);
  x = (x & 0x00003fff00003fffULL) | ((x << 2) & 0x3fff00003fff0000ULL);
  x = (x & 0x007f007f007f007fULL) | ((x << 1) & 0x7f007f007f007f00ULL);
  return x;
}

// Encodes one value, branchless for encodings up to 8 bytes (values below
// 2^56): the length comes straight from the bit width, expand7x8 spreads
// the payload, and the continuation bits land in one word OR.  9-10 byte
// values take the plain loop.  Requires 10 bytes of headroom at `p`; the
// column writers size their scratch to guarantee it.
inline std::uint8_t* encode_one_swar(std::uint64_t v, std::uint8_t* p) {
  if (v < 0x80) {
    *p = static_cast<std::uint8_t>(v);
    return p + 1;
  }
  if (v < (1ULL << 56)) {
    const auto bits = static_cast<unsigned>(64 - std::countl_zero(v));
    const unsigned len = (bits + 6) / 7;  // 2..8
    const std::uint64_t x = expand7x8(v) | (kContMask >> (8 * (9 - len)));
    std::memcpy(p, &x, sizeof(x));
    return p + len;
  }
  while (v >= 0x80) {
    *p++ = static_cast<std::uint8_t>(v) | 0x80;
    v >>= 7;
  }
  *p++ = static_cast<std::uint8_t>(v);
  return p;
}

// The strict reference encoder: n write_varint() loops, nothing else.  The
// canonical definition every fast path must (and, LEB128 being canonical,
// can only) reproduce byte for byte.
std::size_t encode_column_scalar(const std::uint64_t* values, std::size_t n,
                                 std::uint8_t* out) {
  std::uint8_t* p = out;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t v = values[i];
    while (v >= 0x80) {
      *p++ = static_cast<std::uint8_t>(v) | 0x80;
      v >>= 7;
    }
    *p++ = static_cast<std::uint8_t>(v);
  }
  return static_cast<std::size_t>(p - out);
}

// Portable word-at-a-time encoder; also the mixed-region and tail handler
// for every vector encode kernel.  Eight single-byte values pack into one
// word store; everything else goes through the branch-light single-value
// path above.
std::size_t encode_column_swar(const std::uint64_t* values, std::size_t n,
                               std::uint8_t* out) {
  std::uint8_t* p = out;
  std::size_t i = 0;
  while (n - i >= 8) {
    const std::uint64_t m = values[i] | values[i + 1] | values[i + 2] |
                            values[i + 3] | values[i + 4] | values[i + 5] |
                            values[i + 6] | values[i + 7];
    if (m < 0x80) {
      const std::uint64_t w =
          values[i] | (values[i + 1] << 8) | (values[i + 2] << 16) |
          (values[i + 3] << 24) | (values[i + 4] << 32) |
          (values[i + 5] << 40) | (values[i + 6] << 48) |
          (values[i + 7] << 56);
      std::memcpy(p, &w, sizeof(w));
      p += 8;
      i += 8;
      continue;
    }
    p = encode_one_swar(values[i++], p);
  }
  for (; i < n; ++i) p = encode_one_swar(values[i], p);
  return static_cast<std::size_t>(p - out);
}

// Portable word-at-a-time kernel; also the mixed-region and tail handler
// for every vector kernel.  Decodes exactly `n` values.  Fast paths only
// consume byte runs that are provably complete and in bounds; anything
// else -- the last <9 bytes of the window, varints longer than 8 bytes --
// goes through the strict decoder, which owns all error behavior.
void column_swar(const std::uint8_t* data, std::size_t end, std::size_t& pos,
                 std::uint64_t* out, std::size_t n) {
  std::size_t i = 0;
  while (i < n) {
    if (end - pos < 9) {
      for (; i < n; ++i) {
        out[i] = wire_detail::decode_varint_strict(data, end, pos);
      }
      return;
    }
    const std::uint64_t w = load_le64(data + pos);
    const std::uint64_t cont = w & kContMask;
    if (cont == 0) {
      // Eight single-byte values (or however many the column still needs).
      const std::size_t take = std::min<std::size_t>(8, n - i);
      for (std::size_t k = 0; k < take; ++k) out[i + k] = (w >> (8 * k)) & 0xff;
      pos += take;
      i += take;
      continue;
    }
    const unsigned first_cont =
        static_cast<unsigned>(std::countr_zero(cont)) / 8;
    if (first_cont > 0) {
      // Single-byte values up to the first multi-byte varint.
      const std::size_t take = std::min<std::size_t>(first_cont, n - i);
      for (std::size_t k = 0; k < take; ++k) out[i + k] = (w >> (8 * k)) & 0xff;
      pos += take;
      i += take;
      continue;
    }
    // A multi-byte varint starts at the window head.
    const std::uint64_t stops = ~w & kContMask;
    if (stops == 0) {
      // Longer than the window (9-10 byte values, or overlong garbage):
      // strict decode decides.
      out[i++] = wire_detail::decode_varint_strict(data, end, pos);
      continue;
    }
    const unsigned len =
        static_cast<unsigned>(std::countr_zero(stops)) / 8 + 1;  // 2..8
    std::uint64_t x = w;
    if (len < 8) x &= ~0ULL >> (8 * (8 - len));
    out[i++] = compact7x8(x & ~kContMask);
    pos += len;
  }
}

void column_scalar(const std::uint8_t* data, std::size_t end,
                   std::size_t& pos, std::uint64_t* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = wire_detail::decode_varint_strict(data, end, pos);
  }
}

#if CAUSEWAY_KERNEL_X86

__attribute__((target("sse4.1"))) void column_sse(const std::uint8_t* data,
                                                  std::size_t end,
                                                  std::size_t& pos,
                                                  std::uint64_t* out,
                                                  std::size_t n) {
  std::size_t i = 0;
  while (n - i >= 16 && end - pos >= 17) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + pos));
    if (_mm_movemask_epi8(v) == 0) {
      // 16 single-byte values: widen u8 -> u64 entirely in registers (no
      // extra memory loads, so the 17-byte bound is the only one needed).
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i + 0),
                       _mm_cvtepu8_epi64(v));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i + 2),
                       _mm_cvtepu8_epi64(_mm_srli_si128(v, 2)));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i + 4),
                       _mm_cvtepu8_epi64(_mm_srli_si128(v, 4)));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i + 6),
                       _mm_cvtepu8_epi64(_mm_srli_si128(v, 6)));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i + 8),
                       _mm_cvtepu8_epi64(_mm_srli_si128(v, 8)));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i + 10),
                       _mm_cvtepu8_epi64(_mm_srli_si128(v, 10)));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i + 12),
                       _mm_cvtepu8_epi64(_mm_srli_si128(v, 12)));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i + 14),
                       _mm_cvtepu8_epi64(_mm_srli_si128(v, 14)));
      pos += 16;
      i += 16;
      continue;
    }
    // Mixed block: let the SWAR path chew a handful, then retry vectorized.
    const std::size_t chunk = std::min<std::size_t>(8, n - i);
    column_swar(data, end, pos, out + i, chunk);
    i += chunk;
  }
  column_swar(data, end, pos, out + i, n - i);
}

__attribute__((target("avx2"))) void column_avx2(const std::uint8_t* data,
                                                 std::size_t end,
                                                 std::size_t& pos,
                                                 std::uint64_t* out,
                                                 std::size_t n) {
  std::size_t i = 0;
  while (n - i >= 32 && end - pos >= 33) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + pos));
    if (_mm256_movemask_epi8(v) == 0) {
      const __m128i lo = _mm256_castsi256_si128(v);
      const __m128i hi = _mm256_extracti128_si256(v, 1);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i + 0),
                          _mm256_cvtepu8_epi64(lo));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i + 4),
                          _mm256_cvtepu8_epi64(_mm_srli_si128(lo, 4)));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i + 8),
                          _mm256_cvtepu8_epi64(_mm_srli_si128(lo, 8)));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i + 12),
                          _mm256_cvtepu8_epi64(_mm_srli_si128(lo, 12)));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i + 16),
                          _mm256_cvtepu8_epi64(hi));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i + 20),
                          _mm256_cvtepu8_epi64(_mm_srli_si128(hi, 4)));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i + 24),
                          _mm256_cvtepu8_epi64(_mm_srli_si128(hi, 8)));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i + 28),
                          _mm256_cvtepu8_epi64(_mm_srli_si128(hi, 12)));
      pos += 32;
      i += 32;
      continue;
    }
    const std::size_t chunk = std::min<std::size_t>(8, n - i);
    column_swar(data, end, pos, out + i, chunk);
    i += chunk;
  }
  column_swar(data, end, pos, out + i, n - i);
}

// 16 values at a time: when a whole block is single-byte (the dominant
// column shape), three levels of packs narrow the sixteen u64 lanes to
// sixteen contiguous bytes -- one store replaces sixteen byte appends.
// packus saturation never fires (every lane is < 0x80), and the pack tree
// leaves the bytes in order: pairs of (value, 0) bytes re-read as u16
// lanes between levels.  Mixed blocks hand 8 values to the SWAR path and
// retry vectorized.
__attribute__((target("sse4.1"))) std::size_t encode_column_sse(
    const std::uint64_t* values, std::size_t n, std::uint8_t* out) {
  std::uint8_t* p = out;
  std::size_t i = 0;
  const __m128i high = _mm_set1_epi64x(~0x7fLL);
  while (n - i >= 16) {
    const auto* src = reinterpret_cast<const __m128i*>(values + i);
    const __m128i r0 = _mm_loadu_si128(src + 0);
    const __m128i r1 = _mm_loadu_si128(src + 1);
    const __m128i r2 = _mm_loadu_si128(src + 2);
    const __m128i r3 = _mm_loadu_si128(src + 3);
    const __m128i r4 = _mm_loadu_si128(src + 4);
    const __m128i r5 = _mm_loadu_si128(src + 5);
    const __m128i r6 = _mm_loadu_si128(src + 6);
    const __m128i r7 = _mm_loadu_si128(src + 7);
    const __m128i all = _mm_or_si128(
        _mm_or_si128(_mm_or_si128(r0, r1), _mm_or_si128(r2, r3)),
        _mm_or_si128(_mm_or_si128(r4, r5), _mm_or_si128(r6, r7)));
    if (_mm_testz_si128(all, high)) {
      const __m128i s0 = _mm_packus_epi32(r0, r1);
      const __m128i s1 = _mm_packus_epi32(r2, r3);
      const __m128i s2 = _mm_packus_epi32(r4, r5);
      const __m128i s3 = _mm_packus_epi32(r6, r7);
      const __m128i t0 = _mm_packus_epi16(s0, s1);
      const __m128i t1 = _mm_packus_epi16(s2, s3);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(p),
                       _mm_packus_epi16(t0, t1));
      p += 16;
      i += 16;
      continue;
    }
    const std::size_t stop = i + 8;
    for (; i < stop; ++i) p = encode_one_swar(values[i], p);
  }
  for (; i < n; ++i) p = encode_one_swar(values[i], p);
  return static_cast<std::size_t>(p - out);
}

// 32 values at a time.  Same pack tree as SSE, but AVX2 packs are
// per-128-bit-lane, which leaves the bytes lane-scrambled; one qword
// permute plus one in-lane byte shuffle restores v0..v31 order before the
// single 32-byte store.
__attribute__((target("avx2"))) std::size_t encode_column_avx2(
    const std::uint64_t* values, std::size_t n, std::uint8_t* out) {
  std::uint8_t* p = out;
  std::size_t i = 0;
  const __m256i high = _mm256_set1_epi64x(~0x7fLL);
  const __m256i unscramble = _mm256_setr_epi8(
      0, 1, 8, 9, 2, 3, 10, 11, 4, 5, 12, 13, 6, 7, 14, 15,
      0, 1, 8, 9, 2, 3, 10, 11, 4, 5, 12, 13, 6, 7, 14, 15);
  while (n - i >= 32) {
    const auto* src = reinterpret_cast<const __m256i*>(values + i);
    const __m256i r0 = _mm256_loadu_si256(src + 0);
    const __m256i r1 = _mm256_loadu_si256(src + 1);
    const __m256i r2 = _mm256_loadu_si256(src + 2);
    const __m256i r3 = _mm256_loadu_si256(src + 3);
    const __m256i r4 = _mm256_loadu_si256(src + 4);
    const __m256i r5 = _mm256_loadu_si256(src + 5);
    const __m256i r6 = _mm256_loadu_si256(src + 6);
    const __m256i r7 = _mm256_loadu_si256(src + 7);
    const __m256i all = _mm256_or_si256(
        _mm256_or_si256(_mm256_or_si256(r0, r1), _mm256_or_si256(r2, r3)),
        _mm256_or_si256(_mm256_or_si256(r4, r5), _mm256_or_si256(r6, r7)));
    if (_mm256_testz_si256(all, high)) {
      const __m256i s0 = _mm256_packus_epi32(r0, r1);
      const __m256i s1 = _mm256_packus_epi32(r2, r3);
      const __m256i s2 = _mm256_packus_epi32(r4, r5);
      const __m256i s3 = _mm256_packus_epi32(r6, r7);
      const __m256i t0 = _mm256_packus_epi16(s0, s1);
      const __m256i t1 = _mm256_packus_epi16(s2, s3);
      __m256i u = _mm256_packus_epi16(t0, t1);
      u = _mm256_permute4x64_epi64(u, _MM_SHUFFLE(3, 1, 2, 0));
      u = _mm256_shuffle_epi8(u, unscramble);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), u);
      p += 32;
      i += 32;
      continue;
    }
    const std::size_t stop = i + 8;
    for (; i < stop; ++i) p = encode_one_swar(values[i], p);
  }
  for (; i < n; ++i) p = encode_one_swar(values[i], p);
  return static_cast<std::size_t>(p - out);
}

// Column transform passes, AVX2 variants (exact integer ops -- identical
// results to the scalar loops by construction).

__attribute__((target("avx2"))) void zigzag_encode_avx2(std::uint64_t* v,
                                                        std::size_t n) {
  const __m256i zero = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    auto* pv = reinterpret_cast<__m256i*>(v + i);
    const __m256i x = _mm256_loadu_si256(pv);
    // Arithmetic >>63 (all-ones for negatives) via 0 - logical >>63.
    const __m256i sign = _mm256_sub_epi64(zero, _mm256_srli_epi64(x, 63));
    _mm256_storeu_si256(pv, _mm256_xor_si256(_mm256_slli_epi64(x, 1), sign));
  }
  for (; i < n; ++i) v[i] = (v[i] << 1) ^ (0ULL - (v[i] >> 63));
}

__attribute__((target("avx2"))) void zigzag_decode_avx2(std::uint64_t* v,
                                                        std::size_t n) {
  const __m256i zero = _mm256_setzero_si256();
  const __m256i one = _mm256_set1_epi64x(1);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    auto* pv = reinterpret_cast<__m256i*>(v + i);
    const __m256i z = _mm256_loadu_si256(pv);
    const __m256i neg = _mm256_sub_epi64(zero, _mm256_and_si256(z, one));
    _mm256_storeu_si256(pv, _mm256_xor_si256(_mm256_srli_epi64(z, 1), neg));
  }
  for (; i < n; ++i) v[i] = (v[i] >> 1) ^ (0ULL - (v[i] & 1));
}

// In-place difference column, walked from the high end so every load reads
// not-yet-overwritten input.
__attribute__((target("avx2"))) void delta_encode_avx2(std::uint64_t* v,
                                                       std::size_t n) {
  std::size_t j = n;
  while (j >= 5) {
    j -= 4;
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + j));
    const __m256i y =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + j - 1));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(v + j),
                        _mm256_sub_epi64(x, y));
  }
  for (std::size_t k = j; k-- > 1;) v[k] -= v[k - 1];
}

// Wrapping inclusive prefix sum: in-lane shift-add, a broadcast of lane
// 0's total into lane 1, and a running-total broadcast carried between
// vectors.
__attribute__((target("avx2"))) void prefix_sum_avx2(std::uint64_t* v,
                                                     std::size_t n) {
  __m256i carry = _mm256_setzero_si256();  // running total in every lane
  const __m256i zero = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    auto* pv = reinterpret_cast<__m256i*>(v + i);
    __m256i x = _mm256_loadu_si256(pv);
    x = _mm256_add_epi64(x, _mm256_slli_si256(x, 8));
    // Add lane0's pair-total (element 1) into both elements of lane 1.
    const __m256i bridge = _mm256_blend_epi32(
        zero, _mm256_permute4x64_epi64(x, _MM_SHUFFLE(1, 1, 1, 1)), 0xf0);
    x = _mm256_add_epi64(_mm256_add_epi64(x, bridge), carry);
    _mm256_storeu_si256(pv, x);
    carry = _mm256_permute4x64_epi64(x, _MM_SHUFFLE(3, 3, 3, 3));
  }
  if (i < n) {
    std::uint64_t acc = i == 0 ? 0 : v[i - 1];
    for (; i < n; ++i) {
      acc += v[i];
      v[i] = acc;
    }
  }
}

#endif  // CAUSEWAY_KERNEL_X86

#if CAUSEWAY_KERNEL_NEON

void column_neon(const std::uint8_t* data, std::size_t end, std::size_t& pos,
                 std::uint64_t* out, std::size_t n) {
  std::size_t i = 0;
  while (n - i >= 16 && end - pos >= 17) {
    const uint8x16_t v = vld1q_u8(data + pos);
    if (vmaxvq_u8(v) < 0x80) {
      const uint16x8_t lo16 = vmovl_u8(vget_low_u8(v));
      const uint16x8_t hi16 = vmovl_u8(vget_high_u8(v));
      const uint32x4_t a = vmovl_u16(vget_low_u16(lo16));
      const uint32x4_t b = vmovl_u16(vget_high_u16(lo16));
      const uint32x4_t c = vmovl_u16(vget_low_u16(hi16));
      const uint32x4_t d = vmovl_u16(vget_high_u16(hi16));
      vst1q_u64(out + i + 0, vmovl_u32(vget_low_u32(a)));
      vst1q_u64(out + i + 2, vmovl_u32(vget_high_u32(a)));
      vst1q_u64(out + i + 4, vmovl_u32(vget_low_u32(b)));
      vst1q_u64(out + i + 6, vmovl_u32(vget_high_u32(b)));
      vst1q_u64(out + i + 8, vmovl_u32(vget_low_u32(c)));
      vst1q_u64(out + i + 10, vmovl_u32(vget_high_u32(c)));
      vst1q_u64(out + i + 12, vmovl_u32(vget_low_u32(d)));
      vst1q_u64(out + i + 14, vmovl_u32(vget_high_u32(d)));
      pos += 16;
      i += 16;
      continue;
    }
    const std::size_t chunk = std::min<std::size_t>(8, n - i);
    column_swar(data, end, pos, out + i, chunk);
    i += chunk;
  }
  column_swar(data, end, pos, out + i, n - i);
}

// 16 values per iteration: an all-single-byte block narrows u64 -> u32 ->
// u16 -> u8 through the vmovn chain (order-preserving) into one 16-byte
// store; mixed blocks hand 8 values to the SWAR path and retry.
std::size_t encode_column_neon(const std::uint64_t* values, std::size_t n,
                               std::uint8_t* out) {
  std::uint8_t* p = out;
  std::size_t i = 0;
  while (n - i >= 16) {
    const uint64x2_t r0 = vld1q_u64(values + i + 0);
    const uint64x2_t r1 = vld1q_u64(values + i + 2);
    const uint64x2_t r2 = vld1q_u64(values + i + 4);
    const uint64x2_t r3 = vld1q_u64(values + i + 6);
    const uint64x2_t r4 = vld1q_u64(values + i + 8);
    const uint64x2_t r5 = vld1q_u64(values + i + 10);
    const uint64x2_t r6 = vld1q_u64(values + i + 12);
    const uint64x2_t r7 = vld1q_u64(values + i + 14);
    const uint64x2_t all = vorrq_u64(
        vorrq_u64(vorrq_u64(r0, r1), vorrq_u64(r2, r3)),
        vorrq_u64(vorrq_u64(r4, r5), vorrq_u64(r6, r7)));
    if ((vgetq_lane_u64(all, 0) | vgetq_lane_u64(all, 1)) < 0x80) {
      const uint32x4_t a = vcombine_u32(vmovn_u64(r0), vmovn_u64(r1));
      const uint32x4_t b = vcombine_u32(vmovn_u64(r2), vmovn_u64(r3));
      const uint32x4_t c = vcombine_u32(vmovn_u64(r4), vmovn_u64(r5));
      const uint32x4_t d = vcombine_u32(vmovn_u64(r6), vmovn_u64(r7));
      const uint16x8_t lo = vcombine_u16(vmovn_u32(a), vmovn_u32(b));
      const uint16x8_t hi = vcombine_u16(vmovn_u32(c), vmovn_u32(d));
      vst1q_u8(p, vcombine_u8(vmovn_u16(lo), vmovn_u16(hi)));
      p += 16;
      i += 16;
      continue;
    }
    const std::size_t stop = i + 8;
    for (; i < stop; ++i) p = encode_one_swar(values[i], p);
  }
  for (; i < n; ++i) p = encode_one_swar(values[i], p);
  return static_cast<std::size_t>(p - out);
}

#endif  // CAUSEWAY_KERNEL_NEON

bool kernel_compiled(VarintKernel kernel) {
  switch (kernel) {
    case VarintKernel::kScalar:
      return true;
    case VarintKernel::kSwar:
      // The word-at-a-time math assumes little-endian byte order.
      return std::endian::native == std::endian::little;
    case VarintKernel::kSse:
    case VarintKernel::kAvx2:
      return CAUSEWAY_KERNEL_X86 != 0;
    case VarintKernel::kNeon:
      return CAUSEWAY_KERNEL_NEON != 0;
  }
  return false;
}

// 255 = unresolved; resolution is idempotent, so the benign first-use race
// just resolves twice to the same answer.
std::atomic<std::uint8_t> g_kernel{255};

bool parse_kernel_name(std::string_view name, VarintKernel& out) {
  if (name == "scalar") {
    out = VarintKernel::kScalar;
  } else if (name == "swar") {
    out = VarintKernel::kSwar;
  } else if (name == "sse") {
    out = VarintKernel::kSse;
  } else if (name == "avx2") {
    out = VarintKernel::kAvx2;
  } else if (name == "neon") {
    out = VarintKernel::kNeon;
  } else {
    return false;
  }
  return true;
}

VarintKernel resolve_kernel() {
  if (const char* env = std::getenv("CAUSEWAY_KERNEL")) {
    VarintKernel forced;
    if (parse_kernel_name(env, forced) && varint_kernel_available(forced)) {
      return forced;
    }
    // Unknown or unavailable names fall through to auto-selection: a config
    // written for one host must not break decode on another.
  }
  constexpr VarintKernel preference[] = {
      VarintKernel::kAvx2, VarintKernel::kSse, VarintKernel::kNeon,
      VarintKernel::kSwar};
  for (const VarintKernel k : preference) {
    if (varint_kernel_available(k)) return k;
  }
  return VarintKernel::kScalar;
}

}  // namespace

std::string_view to_string(VarintKernel kernel) {
  switch (kernel) {
    case VarintKernel::kScalar: return "scalar";
    case VarintKernel::kSwar: return "swar";
    case VarintKernel::kSse: return "sse";
    case VarintKernel::kAvx2: return "avx2";
    case VarintKernel::kNeon: return "neon";
  }
  return "?";
}

bool varint_kernel_available(VarintKernel kernel) {
  if (!kernel_compiled(kernel)) return false;
#if CAUSEWAY_KERNEL_X86
  if (kernel == VarintKernel::kAvx2) return __builtin_cpu_supports("avx2");
  if (kernel == VarintKernel::kSse) return __builtin_cpu_supports("sse4.1");
#endif
  return true;
}

VarintKernel active_varint_kernel() {
  const std::uint8_t k = g_kernel.load(std::memory_order_relaxed);
  if (k == 255) {
    const VarintKernel resolved = resolve_kernel();
    g_kernel.store(static_cast<std::uint8_t>(resolved),
                   std::memory_order_relaxed);
    return resolved;
  }
  return static_cast<VarintKernel>(k);
}

void force_varint_kernel(VarintKernel kernel) {
  if (!varint_kernel_available(kernel)) {
    throw WireError("varint kernel unavailable: " +
                    std::string(to_string(kernel)));
  }
  g_kernel.store(static_cast<std::uint8_t>(kernel),
                 std::memory_order_relaxed);
}

void WireCursor::read_varint_column(std::uint64_t* out, std::size_t n) {
  if (n == 0) return;
  switch (active_varint_kernel()) {
#if CAUSEWAY_KERNEL_X86
    case VarintKernel::kAvx2:
      column_avx2(data_, end_, pos_, out, n);
      return;
    case VarintKernel::kSse:
      column_sse(data_, end_, pos_, out, n);
      return;
#endif
#if CAUSEWAY_KERNEL_NEON
    case VarintKernel::kNeon:
      column_neon(data_, end_, pos_, out, n);
      return;
#endif
    case VarintKernel::kSwar:
      column_swar(data_, end_, pos_, out, n);
      return;
    default:
      column_scalar(data_, end_, pos_, out, n);
      return;
  }
}

void WireCursor::read_svarint_column(std::int64_t* out, std::size_t n) {
  // Decode raw varints in place (int64/uint64 alias legally), then zig-zag
  // in one batched pass.
  auto* raw = reinterpret_cast<std::uint64_t*>(out);
  read_varint_column(raw, n);
  zigzag_decode_column(out, n);
}

namespace {

// Write-side dispatch: encodes `n` values into `out` (which must have
// 10*n bytes of headroom) and returns the bytes written.
std::size_t encode_column_dispatch(const std::uint64_t* values, std::size_t n,
                                   std::uint8_t* out) {
  switch (active_varint_kernel()) {
#if CAUSEWAY_KERNEL_X86
    case VarintKernel::kAvx2:
      return encode_column_avx2(values, n, out);
    case VarintKernel::kSse:
      return encode_column_sse(values, n, out);
#endif
#if CAUSEWAY_KERNEL_NEON
    case VarintKernel::kNeon:
      return encode_column_neon(values, n, out);
#endif
    case VarintKernel::kSwar:
      return encode_column_swar(values, n, out);
    default:
      return encode_column_scalar(values, n, out);
  }
}

// True when the AVX2 transform-pass variants should run: the active kernel
// is AVX2 (which varint_kernel_available already gated on CPU support).
bool use_avx2_passes() {
#if CAUSEWAY_KERNEL_X86
  return active_varint_kernel() == VarintKernel::kAvx2;
#else
  return false;
#endif
}

constexpr std::size_t kEncodeChunk = 512;  // values per scratch block

}  // namespace

void WireBuffer::write_varint_column(const std::uint64_t* values,
                                     std::size_t n) {
  // Size-bounded scratch: encode a chunk into a stack block sized for the
  // 10-byte worst case, then append only the bytes produced.  Keeps the
  // kernels free to overwrite 8/16/32-byte blocks without ever touching
  // the buffer's tail bookkeeping.
  std::uint8_t scratch[kEncodeChunk * 10];
  while (n > 0) {
    const std::size_t take = n < kEncodeChunk ? n : kEncodeChunk;
    const std::size_t written = encode_column_dispatch(values, take, scratch);
    bytes_.insert(bytes_.end(), scratch, scratch + written);
    values += take;
    n -= take;
  }
}

void WireBuffer::write_svarint_column(const std::int64_t* values,
                                      std::size_t n) {
  std::uint64_t zz[kEncodeChunk];
  std::uint8_t scratch[kEncodeChunk * 10];
  while (n > 0) {
    const std::size_t take = n < kEncodeChunk ? n : kEncodeChunk;
    std::memcpy(zz, values, take * sizeof(std::uint64_t));
    zigzag_encode_column(zz, take);
    const std::size_t written = encode_column_dispatch(zz, take, scratch);
    bytes_.insert(bytes_.end(), scratch, scratch + written);
    values += take;
    n -= take;
  }
}

void zigzag_encode_column(std::uint64_t* values, std::size_t n) {
#if CAUSEWAY_KERNEL_X86
  if (use_avx2_passes()) {
    zigzag_encode_avx2(values, n);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) {
    values[i] = (values[i] << 1) ^ (0ULL - (values[i] >> 63));
  }
}

void zigzag_decode_column(std::int64_t* values, std::size_t n) {
  auto* v = reinterpret_cast<std::uint64_t*>(values);
#if CAUSEWAY_KERNEL_X86
  if (use_avx2_passes()) {
    zigzag_decode_avx2(v, n);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) v[i] = (v[i] >> 1) ^ (0ULL - (v[i] & 1));
}

void delta_encode_column(std::uint64_t* values, std::size_t n) {
#if CAUSEWAY_KERNEL_X86
  if (use_avx2_passes()) {
    delta_encode_avx2(values, n);
    return;
  }
#endif
  for (std::size_t i = n; i-- > 1;) values[i] -= values[i - 1];
}

void prefix_sum_column(std::int64_t* values, std::size_t n) {
  auto* v = reinterpret_cast<std::uint64_t*>(values);
#if CAUSEWAY_KERNEL_X86
  if (use_avx2_passes()) {
    prefix_sum_avx2(v, n);
    return;
  }
#endif
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += v[i];
    v[i] = acc;
  }
}

// --- Column blocks (trace format v5) ---------------------------------------

std::optional<std::vector<std::uint8_t>> deflate_column(
    std::span<const std::uint8_t> payload) {
  // Tiny payloads can't win: deflate's own framing eats the savings, and
  // the attempt itself costs a codec setup per column.
  constexpr std::size_t kDeflateFloor = 64;
  if (payload.size() < kDeflateFloor) return std::nullopt;
  return deflate_bytes(payload);
}

void write_column_block(
    WireBuffer& out, std::span<const std::uint8_t> payload,
    const std::optional<std::vector<std::uint8_t>>& deflated) {
  if (deflated) {
    out.write_u8(kColumnCodecDeflate);
    out.write_varint(payload.size());
    out.write_varint(deflated->size());
    out.append_raw(*deflated);
    return;
  }
  out.write_u8(kColumnCodecRaw);
  out.write_varint(payload.size());
  out.append_raw(payload);
}

std::span<const std::uint8_t> read_column_block(
    WireCursor& in, std::size_t max_decoded,
    std::vector<std::uint8_t>& scratch) {
  const std::uint8_t codec = in.read_u8();
  if (codec == kColumnCodecRaw) {
    const std::uint64_t len = in.read_varint();
    if (len > max_decoded) throw WireError("column block too large");
    const std::string_view v = in.read_view(static_cast<std::size_t>(len));
    return {reinterpret_cast<const std::uint8_t*>(v.data()), v.size()};
  }
  if (codec != kColumnCodecDeflate) {
    throw WireError("unknown column block codec");
  }
  const std::uint64_t raw_len = in.read_varint();
  const std::uint64_t comp_len = in.read_varint();
  // Reject before allocating: a block cannot legitimately decode to more
  // than the column's structural maximum, and raw deflate tops out around
  // 1032:1, so a huge raw_len over a tiny stream is always hostile.
  if (raw_len > max_decoded) throw WireError("column block too large");
  const std::string_view comp = in.read_view(static_cast<std::size_t>(comp_len));
  try {
    inflate_bytes(
        {reinterpret_cast<const std::uint8_t*>(comp.data()), comp.size()},
        static_cast<std::size_t>(raw_len), scratch);
  } catch (const CompressError& e) {
    throw WireError(e.what());
  }
  return {scratch.data(), scratch.size()};
}

}  // namespace causeway
