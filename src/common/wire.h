// Wire-format buffers: the marshaling substrate shared by the ORB, the
// COM-like runtime, the bridge and the instrumented stubs/skeletons.
//
// Encoding is a compact little-endian CDR-ish format: fixed-width integers,
// IEEE doubles, length-prefixed strings/byte blobs, and LEB128 varints
// (plain and zig-zag) for the columnar trace format.  WireBuffer writes,
// WireCursor reads with strict bounds checking (malformed input raises
// WireError; it never reads out of bounds, and overlong varints -- more
// than ten bytes, or value bits beyond 64 -- are rejected, not wrapped).
//
// The instrumented stubs append the FTL as a *trailer* ([payload][FTL][magic])
// so the runtime below never needs to know monitoring exists -- see
// monitor/ftl.h.  WireCursor::truncate() is what lets a skeleton peel such a
// trailer off before handing the payload to user unmarshaling code.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace causeway {

class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

// The batch column decoders (WireCursor::read_varint_column and friends)
// and encoders (WireBuffer::write_varint_column and friends) dispatch to
// one of these kernels, resolved once per process: the widest variant the
// build compiled in (CAUSEWAY_SIMD) *and* the CPU supports, overridable
// with CAUSEWAY_KERNEL=scalar|swar|sse|avx2|neon or force_varint_kernel()
// (tests and benches pin variants to compare them).  Every kernel decodes
// the same bytes to the same values and raises the same WireError text at
// the same byte -- the strict scalar decoder is the single source of truth
// that every fast path falls back to for anything but well-formed
// in-bounds runs.  On the write side the contract is even simpler: LEB128
// is canonical, so every kernel emits byte-identical output.
enum class VarintKernel : std::uint8_t {
  kScalar = 0,  // one strict LEB128 decode per value (the reference)
  kSwar = 1,    // 8-byte word-at-a-time, portable C++
  kSse = 2,     // 16-byte blocks (SSE4.1), x86-64 only
  kAvx2 = 3,    // 32-byte blocks (AVX2), x86-64 only
  kNeon = 4,    // 16-byte blocks, AArch64 only
};

std::string_view to_string(VarintKernel kernel);

// True when the kernel is compiled in and the running CPU supports it
// (kScalar and kSwar always are).
bool varint_kernel_available(VarintKernel kernel);

// The kernel batch decodes currently dispatch to.
VarintKernel active_varint_kernel();

// Pins the dispatch (kernel must be available; throws WireError otherwise).
// Tests use this to run the same decode under every variant.
void force_varint_kernel(VarintKernel kernel);

namespace wire_detail {

// Strict LEB128 decode -- THE definition of what this codebase accepts.
// WireCursor::read_varint and every batch kernel's non-fast-path route
// through here, so truncation ("wire underflow") and overlong rejection
// ("varint overlong") behave and read identically no matter which kernel
// decoded the surrounding column.
inline std::uint64_t decode_varint_strict(const std::uint8_t* data,
                                          std::size_t end, std::size_t& pos) {
  // Fast path: single-byte values dominate delta/id columns.
  if (pos < end && data[pos] < 0x80) return data[pos++];
  std::uint64_t v = 0;
  for (unsigned shift = 0; shift < 64; shift += 7) {
    if (end - pos < 1) throw WireError("wire underflow");
    const std::uint8_t byte = data[pos++];
    if (shift == 63 && byte > 1) throw WireError("varint overlong");
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return v;
  }
  throw WireError("varint overlong");
}

}  // namespace wire_detail

// Zig-zag mapping: small-magnitude signed values (deltas between nearly
// equal samples) become small unsigned values, which the varint coder then
// stores in one or two bytes.
constexpr std::uint64_t zigzag_encode(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

constexpr std::int64_t zigzag_decode(std::uint64_t z) {
  return static_cast<std::int64_t>(z >> 1) ^
         -static_cast<std::int64_t>(z & 1);
}

// In-place batched transforms over whole columns -- the delta/zig-zag
// passes the v4 codec runs before varint emission (encode) and after
// varint decode.  Dispatched like the varint kernels (AVX2 when active,
// scalar otherwise), but every variant is exact integer math, so results
// are bit-identical under every kernel -- the differential test enforces
// it.  All arithmetic is two's-complement wrapping (done in uint64), never
// signed overflow.
//
//   zigzag_encode_column  each int64 (carried as its uint64 bit pattern)
//                         becomes its zig-zag mapping
//   zigzag_decode_column  the inverse, over freshly decoded raw varints
//   delta_encode_column   values[i] -= values[i-1] (values[0] kept): the
//                         difference column the v4 writer stores
//   prefix_sum_column     the inverse: wrapping inclusive prefix sum over
//                         a decoded delta column
void zigzag_encode_column(std::uint64_t* values, std::size_t n);
void zigzag_decode_column(std::int64_t* values, std::size_t n);
void delta_encode_column(std::uint64_t* values, std::size_t n);
void prefix_sum_column(std::int64_t* values, std::size_t n);

class WireBuffer {
 public:
  WireBuffer() = default;
  explicit WireBuffer(std::vector<std::uint8_t> bytes)
      : bytes_(std::move(bytes)) {}

  void write_u8(std::uint8_t v) { bytes_.push_back(v); }
  void write_bool(bool v) { write_u8(v ? 1 : 0); }
  void write_u16(std::uint16_t v) { write_le(v); }
  void write_u32(std::uint32_t v) { write_le(v); }
  void write_u64(std::uint64_t v) { write_le(v); }
  void write_i32(std::int32_t v) { write_le(static_cast<std::uint32_t>(v)); }
  void write_i64(std::int64_t v) { write_le(static_cast<std::uint64_t>(v)); }

  void write_f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    write_le(bits);
  }

  // LEB128: seven value bits per byte, high bit = continuation.  At most
  // ten bytes for a full 64-bit value.
  void write_varint(std::uint64_t v) {
    while (v >= 0x80) {
      bytes_.push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    bytes_.push_back(static_cast<std::uint8_t>(v));
  }

  void write_svarint(std::int64_t v) { write_varint(zigzag_encode(v)); }

  // Bulk LEB128 encode: appends exactly the bytes n write_varint() calls
  // would, but batched through the active varint kernel -- runs of short
  // values pack a word (SWAR) or a vector register (SSE/AVX2/NEON) at a
  // time into a size-bounded scratch block before landing in the buffer.
  // LEB128 is canonical (each value has exactly one encoding), so kernel
  // choice can never change the bytes; the differential test and the
  // forced-kernel ctest legs enforce it.  Defined in wire.cpp.
  void write_varint_column(const std::uint64_t* values, std::size_t n);

  // Bulk zig-zag encode: n svarints (no delta folding; callers own the
  // delta transform because run boundaries reset it).
  void write_svarint_column(const std::int64_t* values, std::size_t n);

  void write_string(std::string_view s) {
    write_u32(static_cast<std::uint32_t>(s.size()));
    bytes_.insert(bytes_.end(), s.begin(), s.end());
  }

  void write_bytes(std::span<const std::uint8_t> b) {
    write_u32(static_cast<std::uint32_t>(b.size()));
    bytes_.insert(bytes_.end(), b.begin(), b.end());
  }

  // Appends raw bytes with no length prefix (used for trailers and for
  // splicing one buffer into another).
  void append_raw(std::span<const std::uint8_t> b) {
    bytes_.insert(bytes_.end(), b.begin(), b.end());
  }

  // Patches a u64 written earlier (e.g. a frame-length word reserved before
  // the frame body was encoded).  The eight bytes must already exist.
  void overwrite_u64(std::size_t offset, std::uint64_t v) {
    if (offset + sizeof(v) > bytes_.size()) {
      throw WireError("overwrite past end of buffer");
    }
    for (std::size_t i = 0; i < sizeof(v); ++i) {
      bytes_[offset + i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }

  void reserve(std::size_t n) { bytes_.reserve(n); }

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::vector<std::uint8_t> take() && { return std::move(bytes_); }
  std::size_t size() const { return bytes_.size(); }
  bool empty() const { return bytes_.empty(); }
  void clear() { bytes_.clear(); }

 private:
  template <typename T>
  void write_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  std::vector<std::uint8_t> bytes_;
};

class WireCursor {
 public:
  WireCursor(const std::uint8_t* data, std::size_t size)
      : data_(data), end_(size) {}
  explicit WireCursor(std::span<const std::uint8_t> s)
      : WireCursor(s.data(), s.size()) {}
  explicit WireCursor(const WireBuffer& b)
      : WireCursor(b.bytes().data(), b.bytes().size()) {}

  std::uint8_t read_u8() { return read_le<std::uint8_t>(); }
  bool read_bool() { return read_u8() != 0; }
  std::uint16_t read_u16() { return read_le<std::uint16_t>(); }
  std::uint32_t read_u32() { return read_le<std::uint32_t>(); }
  std::uint64_t read_u64() { return read_le<std::uint64_t>(); }
  std::int32_t read_i32() { return static_cast<std::int32_t>(read_u32()); }
  std::int64_t read_i64() { return static_cast<std::int64_t>(read_u64()); }

  double read_f64() {
    const std::uint64_t bits = read_u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  // Strict LEB128 decode: throws WireError on truncation (continuation bit
  // set at the end of input) and on overlong encodings -- an eleventh byte,
  // or a tenth byte carrying value bits beyond the 64th.
  std::uint64_t read_varint() {
    return wire_detail::decode_varint_strict(data_, end_, pos_);
  }

  std::int64_t read_svarint() { return zigzag_decode(read_varint()); }

  // Bulk LEB128 decode: exactly `n` varints into out[0..n), equivalent to n
  // read_varint() calls but dispatched to the active batch kernel (SWAR /
  // SSE / AVX2 / NEON), which decodes runs of short varints a word or a
  // vector register at a time.  Bounds handling and error text are
  // byte-identical to the scalar loop by construction: fast paths only
  // consume well-formed in-bounds runs, everything else (truncation,
  // overlong encodings, 9-10 byte values) routes through the shared strict
  // decoder.  Defined in wire.cpp.
  void read_varint_column(std::uint64_t* out, std::size_t n);

  // Bulk zig-zag decode: n svarints into out[0..n) (no delta accumulation;
  // callers own the prefix-sum because run boundaries reset it).
  void read_svarint_column(std::int64_t* out, std::size_t n);

  std::string read_string() {
    const std::uint32_t n = read_u32();
    require(n);
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }

  // Zero-copy view of the next `n` bytes; valid only while the underlying
  // storage (e.g. an mmap) lives.  Callers that outlive it must copy.
  std::string_view read_view(std::size_t n) {
    require(n);
    const char* p = reinterpret_cast<const char*>(data_ + pos_);
    pos_ += n;
    return {p, n};
  }

  std::vector<std::uint8_t> read_bytes() {
    const std::uint32_t n = read_u32();
    require(n);
    std::vector<std::uint8_t> b(data_ + pos_, data_ + pos_ + n);
    pos_ += n;
    return b;
  }

  std::size_t remaining() const { return end_ - pos_; }
  std::size_t position() const { return pos_; }

  // Advances past `n` bytes without materializing them (bounds-checked).
  // Lets a reader skim a frame's extent -- e.g. locating trace-segment
  // boundaries before decoding the segments in parallel.
  void skip(std::size_t n) {
    require(n);
    pos_ += n;
  }

  // Shrinks the readable window to `new_end` absolute bytes; used to peel a
  // fixed-size trailer off the end of a payload.
  void truncate(std::size_t new_end) {
    if (new_end < pos_ || new_end > end_) {
      throw WireError("truncate outside readable window");
    }
    end_ = new_end;
  }

  // Peeks `n` bytes ending at the current window end without consuming.
  std::span<const std::uint8_t> peek_tail(std::size_t n) const {
    if (remaining() < n) throw WireError("peek_tail past start");
    return {data_ + end_ - n, n};
  }

  std::span<const std::uint8_t> rest() const {
    return {data_ + pos_, end_ - pos_};
  }

 private:
  void require(std::size_t n) const {
    if (end_ - pos_ < n) throw WireError("wire underflow");
  }

  template <typename T>
  T read_le() {
    require(sizeof(T));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | (static_cast<T>(data_[pos_ + i]) << (8 * i)));
    }
    pos_ += sizeof(T);
    return v;
  }

  const std::uint8_t* data_;
  std::size_t pos_{0};
  std::size_t end_;
};

// --- Column blocks (trace format v5) ---------------------------------------
//
// A column block wraps one column's encoded payload so it can optionally
// travel deflated:
//
//   u8 codec                  0 = raw, 1 = deflate
//   codec 0: varint len,      then len payload bytes verbatim
//   codec 1: varint raw_len   (exact decoded payload size),
//            varint comp_len, then comp_len raw-deflate bytes
//
// The decoded length always rides in the header, so inflation is
// bounds-checked: the reader allocates exactly raw_len bytes, and a stream
// that decodes to anything else is rejected.  `max_decoded` is the caller's
// structural bound (e.g. 10 bytes per varint times the record count) -- a
// block advertising more than the column could possibly hold is rejected
// before any allocation, killing decompression-bomb inputs cheaply.

inline constexpr std::uint8_t kColumnCodecRaw = 0;
inline constexpr std::uint8_t kColumnCodecDeflate = 1;

// Writing a column block has two halves.  deflate_column is the codec
// decision: the deflated form of `payload` when the build has zlib and that
// form is smaller, nullopt otherwise (payloads under 64 bytes are not
// tried: deflate's own framing eats the savings).  It depends only on
// `payload`, so a writer may run it for several columns at once.
// write_column_block is the framing: it appends `payload` as one block,
// deflated when `deflated` holds the form deflate_column returned, raw
// otherwise -- so the output is always the smaller of the two forms and
// decodes identically either way.
std::optional<std::vector<std::uint8_t>> deflate_column(
    std::span<const std::uint8_t> payload);
void write_column_block(
    WireBuffer& out, std::span<const std::uint8_t> payload,
    const std::optional<std::vector<std::uint8_t>>& deflated);

// Reads one column block, returning a view of the decoded payload: directly
// into the input for raw blocks (zero-copy), into `scratch` (resized) for
// deflated ones.  The view is invalidated by the next call that reuses
// `scratch`.  Throws WireError on truncation, an unknown codec, a decoded
// size above `max_decoded`, or a deflate stream that is corrupt or does not
// decode to exactly the advertised size.
std::span<const std::uint8_t> read_column_block(
    WireCursor& in, std::size_t max_decoded, std::vector<std::uint8_t>& scratch);

}  // namespace causeway
