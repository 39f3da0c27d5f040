// szp — byte-renormalized range ANS (rANS) entropy coder.
//
// The table-variant ANS family is what Zstandard's FSE implements; rANS is
// the arithmetic variant of the same construction (Duda 2013).  This is the
// entropy stage of lzr.cc, the repository's Zstd stand-in (cuSZ's Step-9
// dictionary encoder runs Zstd on the host, paper §II-A), and the coder of
// every chunk of the kRans quant-code codec (core/codec/builtin_codecs.cc).
//
// Model: symbol frequencies normalized to 2^12; encoding walks the symbol
// stream backwards and emits bytes, decoding walks forwards — the classic
// LIFO ANS arrangement.  Fractional-bit coding means skewed alphabets beat
// Huffman's 1-bit-per-symbol floor.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/serialize.hh"

namespace szp {

/// Chunk length of the chunk-parallel rANS section (core/codec): streams of
/// more symbols are split into independent kRansChunk-symbol chains, each
/// with its own state and byte stream, so encode and decode run one chunk
/// per block.  Part of the archive format (format v4, core/archive.hh).
inline constexpr std::size_t kRansChunk = std::size_t{1} << 18;

/// Encoder entry of one symbol: ryg_rans' RansEncSymbol, which replaces the
/// state update's division by an exact reciprocal multiply.
struct RansEncSymbol {
  std::uint32_t x_max = 0;     ///< renormalize while x >= x_max (0: not encodable)
  std::uint32_t rcp_freq = 0;  ///< fixed-point reciprocal of freq
  std::uint32_t bias = 0;
  std::uint16_t cmpl_freq = 0;  ///< kProbScale - freq
  std::uint16_t rcp_shift = 0;
};

/// Decoder entry of one probability slot: the owning symbol, its frequency,
/// and slot - cum(symbol), so one lookup drives the whole state update.
struct RansDecSlot {
  std::uint16_t freq = 0;
  std::uint16_t bias = 0;
  std::uint16_t symbol = 0;
};

/// Normalized symbol model (total frequency = 2^kProbBits).
class RansModel {
 public:
  static constexpr unsigned kProbBits = 12;
  static constexpr std::uint32_t kProbScale = 1u << kProbBits;

  /// Build from raw counts.  Every symbol that occurs keeps frequency >= 1
  /// after normalization.  Throws if all counts are zero or the alphabet
  /// exceeds 2^16.
  static RansModel build(std::span<const std::uint64_t> counts);

  [[nodiscard]] std::size_t alphabet_size() const { return freq_.size(); }
  [[nodiscard]] std::uint32_t freq(std::size_t s) const { return freq_[s]; }
  [[nodiscard]] std::uint32_t cum(std::size_t s) const { return cum_[s]; }

  /// Symbol owning probability slot `slot` (< kProbScale).
  [[nodiscard]] std::uint16_t symbol_at(std::uint32_t slot) const { return dec_[slot].symbol; }

  /// Per-symbol encoder table (alphabet_size() entries).
  [[nodiscard]] std::span<const RansEncSymbol> enc_table() const { return enc_; }
  /// Per-slot decoder table (kProbScale entries).
  [[nodiscard]] std::span<const RansDecSlot> dec_table() const { return dec_; }

  void serialize(ByteWriter& w) const;
  static RansModel deserialize(ByteReader& r);

 private:
  void finalize();  // build cum_ and both coder tables from freq_

  std::vector<std::uint32_t> freq_;
  std::vector<std::uint32_t> cum_;
  std::vector<RansEncSymbol> enc_;
  std::vector<RansDecSlot> dec_;
};

/// Worst-case encoded size of `n` symbols: one renormalization emits at
/// most 2 bytes per symbol, plus the 4-byte state flush.
[[nodiscard]] constexpr std::size_t rans_max_bytes(std::size_t n) { return 2 * n + 4; }

/// Encode a symbol stream backwards into the tail of `buf`, which must hold
/// rans_max_bytes(symbols.size()) bytes.  Returns the encoded length; the
/// stream is the last that many bytes of `buf`.  Throws
/// std::invalid_argument on a symbol the model cannot encode.
std::size_t rans_encode_into(std::span<const std::uint16_t> symbols, const RansModel& model,
                             std::span<std::uint8_t> buf);

/// Decode exactly out.size() symbols of one stream into `out`.  Throws
/// DecodeError ("rans stream") when the stream runs out or the final state
/// does not return to the initial one.
void rans_decode_into(std::span<const std::uint8_t> bytes, const RansModel& model,
                      std::span<std::uint16_t> out);

/// Owning conveniences over the span forms.  Output is just the byte stream
/// (the caller stores the symbol count and model).
[[nodiscard]] std::vector<std::uint8_t> rans_encode(std::span<const std::uint16_t> symbols,
                                                    const RansModel& model);
[[nodiscard]] std::vector<std::uint16_t> rans_decode(std::span<const std::uint8_t> bytes,
                                                     std::size_t count, const RansModel& model);

}  // namespace szp
