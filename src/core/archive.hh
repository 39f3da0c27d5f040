// szp — SZP+ archive framing: the fixed header that every archive starts
// with and the trailing CRC-32 that seals it.
//
// Exactly one module owns the byte layout.  Compression writes the header
// through write_header(), decompression and inspect() parse it through
// read_header(), and both directions share checked_body()/append_crc32() for
// the integrity seal — so a format change is a one-file edit and the three
// consumers can never drift apart.  Predictor aux payloads (regression
// coefficients, interpolation anchors) and workflow payloads are *not*
// framed here: they belong to the registered pipeline stages
// (core/pipeline/), which serialize directly after the header in
// registration order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/compressor.hh"
#include "core/serialize.hh"

namespace szp::archive {

inline constexpr std::uint32_t kMagic = 0x2B505A53;  // "SZP+"
/// Format v2: the original four workflows (tags ≤ kRans).  Archives that
/// use them keep writing v2 so every pre-codec-tier archive and golden
/// stays byte-identical in both directions.
inline constexpr std::uint16_t kVersion = 2;
/// Format v3: identical layout, but the workflow slot may carry the LZ
/// codec tags (kLz77/kLzh/kLzr).
inline constexpr std::uint16_t kVersionCodec = 3;
/// Format v4: v3 plus the chunked rANS section (chunk length u32, then one
/// byte stream per kRansChunk symbols, core/rans.hh).  Written only for
/// kRans archives of more than kRansChunk elements; readers decode every
/// rANS section of a lower version as one stream whatever its size.
///
/// Readers accept versions 2 through 4; writers emit the lowest version
/// that can express the archive (format_version()).
inline constexpr std::uint16_t kVersionRansChunks = 4;

/// The lowest format version that can express an archive of `n` elements
/// whose quant codes use `wf`.
[[nodiscard]] std::uint16_t format_version(Workflow wf, std::size_t n);

/// The fixed-size leading header of an SZP+ archive (everything before the
/// predictor aux payload).
struct ArchiveHeader {
  Workflow workflow = Workflow::kHuffman;
  DType dtype = DType::kFloat32;
  Extents extents;
  double eb_abs = 0.0;          ///< kernel-side absolute bound
  std::uint32_t capacity = 0;   ///< quantizer capacity (histogram bins)
  PredictorKind predictor = PredictorKind::kLorenzo;
  std::uint16_t version = kVersion;  ///< read_header() fills it; write_header() derives it
};

/// Serialize the header (magic, version, rank, workflow, dtype, extents,
/// bound, capacity, predictor — in that order, little-endian).  The version
/// written is format_version(h.workflow, h.extents.count()), whatever
/// h.version holds; it is returned so the codec can lay out its section.
std::uint16_t write_header(ByteWriter& w, const ArchiveHeader& h);

/// Parse and validate the header, leaving the reader positioned at the
/// predictor aux payload.  Throws DecodeError on any inconsistency;
/// every field is validated before it is trusted.
[[nodiscard]] ArchiveHeader read_header(ByteReader& r);

/// Verify and strip the trailing CRC-32, returning the archive body.
[[nodiscard]] std::span<const std::uint8_t> checked_body(std::span<const std::uint8_t> archive);

/// Seal a finished archive body with its trailing CRC-32.
void append_crc32(std::vector<std::uint8_t>& bytes);

}  // namespace szp::archive
