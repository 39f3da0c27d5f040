// rANS entropy coder, the chunked kRans codec section, and LZ77+rANS (Zstd
// stand-in) tests.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "core/archive.hh"
#include "core/codec/codec.hh"
#include "core/pipeline/registry.hh"
#include "core/rans.hh"
#include "core/serialize.hh"
#include "lossless/lzr.hh"

namespace {

using namespace szp;
using namespace szp::lossless;

std::vector<std::uint16_t> skewed_symbols(std::size_t n, double p_top, std::size_t alphabet,
                                          std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::uniform_int_distribution<std::size_t> pick(0, alphabet - 1);
  std::vector<std::uint16_t> v(n);
  for (auto& s : v) {
    s = u(rng) < p_top ? static_cast<std::uint16_t>(0) : static_cast<std::uint16_t>(pick(rng));
  }
  return v;
}

std::vector<std::uint64_t> counts_of(std::span<const std::uint16_t> syms, std::size_t alphabet) {
  std::vector<std::uint64_t> c(alphabet, 0);
  for (const auto s : syms) ++c[s];
  return c;
}

// ---- Model ------------------------------------------------------------------

TEST(RansModel, FrequenciesSumToScaleAndKeepEverySymbol) {
  for (const double p : {0.01, 0.5, 0.99, 0.9999}) {
    const auto syms = skewed_symbols(100000, p, 300, 1);
    const auto model = RansModel::build(counts_of(syms, 300));
    std::uint32_t total = 0;
    std::size_t live = 0;
    for (std::size_t s = 0; s < 300; ++s) {
      total += model.freq(s);
      live += model.freq(s) > 0 ? 1u : 0u;
    }
    EXPECT_EQ(total, RansModel::kProbScale) << p;
    // Every occurring symbol keeps a nonzero slot (encodability).
    const auto counts = counts_of(syms, 300);
    for (std::size_t s = 0; s < 300; ++s) {
      if (counts[s] > 0) EXPECT_GT(model.freq(s), 0u) << "p=" << p << " s=" << s;
    }
  }
}

TEST(RansModel, SlotTableIsConsistent) {
  const auto syms = skewed_symbols(20000, 0.7, 50, 2);
  const auto model = RansModel::build(counts_of(syms, 50));
  for (std::uint32_t slot = 0; slot < RansModel::kProbScale; ++slot) {
    const auto s = model.symbol_at(slot);
    EXPECT_GE(slot, model.cum(s));
    EXPECT_LT(slot, model.cum(s) + model.freq(s));
  }
}

TEST(RansModel, SerializationRoundTrip) {
  const auto syms = skewed_symbols(50000, 0.9, 1024, 3);
  const auto model = RansModel::build(counts_of(syms, 1024));
  ByteWriter w;
  model.serialize(w);
  const auto bytes = w.take();
  ByteReader r(bytes);
  const auto restored = RansModel::deserialize(r);
  ASSERT_EQ(restored.alphabet_size(), model.alphabet_size());
  for (std::size_t s = 0; s < 1024; ++s) {
    EXPECT_EQ(restored.freq(s), model.freq(s));
  }
}

TEST(RansModel, RejectsDegenerateInput) {
  std::vector<std::uint64_t> zeros(16, 0);
  EXPECT_THROW((void)RansModel::build(zeros), std::invalid_argument);
  EXPECT_THROW((void)RansModel::build({}), std::invalid_argument);
}

// ---- Coder -------------------------------------------------------------------

class RansRoundTrip : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

TEST_P(RansRoundTrip, EncodeDecodeIdentity) {
  const auto [n, p_top] = GetParam();
  const auto syms = skewed_symbols(n, p_top, 512, static_cast<std::uint32_t>(n));
  const auto model = RansModel::build(counts_of(syms, 512));
  const auto bytes = rans_encode(syms, model);
  const auto decoded = rans_decode(bytes, syms.size(), model);
  EXPECT_EQ(decoded, syms);
}

INSTANTIATE_TEST_SUITE_P(SizesSkews, RansRoundTrip,
                         ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{100},
                                                              std::size_t{65536}),
                                            ::testing::Values(0.1, 0.9, 0.999)));

TEST(Rans, BeatsHuffmanFloorOnVerySkewedData) {
  // p1 = 0.999: entropy ~ 0.014 bits/symbol.  Huffman is stuck at >= 1 bit;
  // rANS's fractional bits get close to the entropy.
  const auto syms = skewed_symbols(200000, 0.999, 64, 7);
  const auto model = RansModel::build(counts_of(syms, 64));
  const auto bytes = rans_encode(syms, model);
  const double bits_per_symbol =
      static_cast<double>(bytes.size()) * 8.0 / static_cast<double>(syms.size());
  EXPECT_LT(bits_per_symbol, 0.1);
}

TEST(Rans, ApproachesEntropyOnUniformData) {
  std::mt19937 rng(8);
  std::vector<std::uint16_t> syms(100000);
  for (auto& s : syms) s = static_cast<std::uint16_t>(rng() % 256);
  const auto model = RansModel::build(counts_of(syms, 256));
  const auto bytes = rans_encode(syms, model);
  const double bits = static_cast<double>(bytes.size()) * 8.0 / static_cast<double>(syms.size());
  EXPECT_NEAR(bits, 8.0, 0.1);
}

TEST(Rans, SingleSymbolStreamCostsAlmostNothing) {
  std::vector<std::uint16_t> syms(100000, 5);
  std::vector<std::uint64_t> counts(16, 0);
  counts[5] = syms.size();
  const auto model = RansModel::build(counts);
  const auto bytes = rans_encode(syms, model);
  EXPECT_LE(bytes.size(), 8u);  // just the state flush
  EXPECT_EQ(rans_decode(bytes, syms.size(), model), syms);
}

TEST(Rans, CorruptStreamIsDetected) {
  const auto syms = skewed_symbols(5000, 0.6, 64, 9);
  const auto model = RansModel::build(counts_of(syms, 64));
  auto bytes = rans_encode(syms, model);
  bytes.resize(bytes.size() / 2);  // truncate
  bool failed = false;
  try {
    const auto decoded = rans_decode(bytes, syms.size(), model);
    failed = decoded != syms;
  } catch (const std::runtime_error&) {
    failed = true;
  }
  EXPECT_TRUE(failed);
}

/// The division-based encoder the reciprocal table replaced (push_back plus
/// a reversed copy): the reference its output must match byte for byte.
std::vector<std::uint8_t> reference_encode(std::span<const std::uint16_t> symbols,
                                           const RansModel& model) {
  constexpr std::uint32_t kLow = 1u << 23;
  std::vector<std::uint8_t> reversed;
  std::uint32_t x = kLow;
  for (std::size_t i = symbols.size(); i-- > 0;) {
    const std::uint32_t f = model.freq(symbols[i]);
    const std::uint32_t x_max = ((kLow >> RansModel::kProbBits) << 8) * f;
    while (x >= x_max) {
      reversed.push_back(static_cast<std::uint8_t>(x & 0xff));
      x >>= 8;
    }
    x = ((x / f) << RansModel::kProbBits) + (x % f) + model.cum(symbols[i]);
  }
  for (int k = 0; k < 4; ++k) {
    reversed.push_back(static_cast<std::uint8_t>(x & 0xff));
    x >>= 8;
  }
  return {reversed.rbegin(), reversed.rend()};
}

TEST(Rans, ReciprocalEncoderMatchesDivisionReference) {
  // Wide alphabets leave many frequency-1 symbols (the reciprocal's special
  // case); skewed ones push frequencies to the top of the scale.
  for (const std::size_t alphabet : {std::size_t{2}, std::size_t{64}, std::size_t{3000}}) {
    for (const double p : {0.0, 0.5, 0.999}) {
      const auto syms = skewed_symbols(40000, p, alphabet, static_cast<std::uint32_t>(alphabet));
      const auto model = RansModel::build(counts_of(syms, alphabet));
      EXPECT_EQ(rans_encode(syms, model), reference_encode(syms, model))
          << "alphabet " << alphabet << " p " << p;
    }
  }
}

// ---- Chunked codec section ---------------------------------------------------

/// Encode through the registered kRans codec at the format version the
/// archive writer would pick for `syms.size()` elements.
std::vector<std::uint8_t> codec_section(std::span<const std::uint16_t> syms,
                                        std::span<const std::uint64_t> freq,
                                        std::uint16_t* version = nullptr) {
  const CompressConfig cfg;
  Workspace ws;
  sim::PipelineReport report;
  const std::uint16_t v = archive::format_version(Workflow::kRans, syms.size());
  if (version != nullptr) *version = v;
  ByteWriter w;
  pipeline::StageRegistry::instance().codec(Workflow::kRans).encode(
      syms, {cfg, freq, 0, v}, ws, w, report);
  return w.take();
}

TEST(RansCodec, SectionBelowOneChunkIsTheSingleStreamSection) {
  // Up to kRansChunk symbols the section is format v2's: model, u64 count,
  // one byte vector holding the single-chain stream.
  std::mt19937 rng(12);
  for (const std::size_t n : {std::size_t{1}, std::size_t{777}, std::size_t{100003},
                              kRansChunk}) {
    const auto syms = skewed_symbols(n, 0.8, 1024, static_cast<std::uint32_t>(rng()));
    const auto freq = counts_of(syms, 1024);
    std::uint16_t version = 0;
    const auto section = codec_section(syms, freq, &version);
    EXPECT_EQ(version, archive::kVersion) << n;
    const auto model = RansModel::build(freq);
    ByteWriter ref;
    model.serialize(ref);
    ref.put<std::uint64_t>(n);
    ref.put_vector(reference_encode(syms, model));
    EXPECT_EQ(section, ref.take()) << n;
  }
}

TEST(RansCodec, ChunkedSectionRoundTripsChunkByChunk) {
  // Two full chunks and a ragged one: v4 section with one independent
  // single-chain stream per chunk, decoded straight into the caller's span.
  const std::size_t n = 2 * kRansChunk + 17;
  const auto syms = skewed_symbols(n, 0.9, 1024, 13);
  const auto freq = counts_of(syms, 1024);
  std::uint16_t version = 0;
  const auto section = codec_section(syms, freq, &version);
  ASSERT_EQ(version, archive::kVersionRansChunks);

  ByteReader r(section);
  const auto model = RansModel::deserialize(r);
  EXPECT_EQ(r.get<std::uint64_t>(), n);
  EXPECT_EQ(r.get<std::uint32_t>(), kRansChunk);
  for (std::size_t lo = 0; lo < n; lo += kRansChunk) {
    const std::span<const std::uint16_t> chunk(syms.data() + lo, std::min(kRansChunk, n - lo));
    EXPECT_EQ(r.get_vector<std::uint8_t>(), reference_encode(chunk, model)) << lo;
  }
  EXPECT_TRUE(r.exhausted());

  ByteReader dr(section);
  std::vector<quant_t> out(n);
  sim::PipelineReport report;
  pipeline::StageRegistry::instance().codec(Workflow::kRans).decode(
      dr, {n, 0, version}, out, report);
  EXPECT_EQ(out, syms);
}

TEST(RansCodec, WriterPicksTheLowestVersion) {
  EXPECT_EQ(archive::format_version(Workflow::kRans, kRansChunk), archive::kVersion);
  EXPECT_EQ(archive::format_version(Workflow::kRans, kRansChunk + 1),
            archive::kVersionRansChunks);
  EXPECT_EQ(archive::format_version(Workflow::kHuffman, 4 * kRansChunk), archive::kVersion);
  EXPECT_EQ(archive::format_version(Workflow::kLzr, 4 * kRansChunk), archive::kVersionCodec);
}

// ---- LZR (Zstd stand-in) -----------------------------------------------------

std::vector<std::uint8_t> bytes_of(const std::string& s) { return {s.begin(), s.end()}; }

TEST(Lzr, RoundTripAssorted) {
  for (const auto& s : {std::string{""}, std::string{"x"}, std::string{"aaa"},
                        std::string{"the quick brown fox the quick brown fox"}}) {
    const auto input = bytes_of(s);
    EXPECT_EQ(lzr_decompress(lzr_compress(input)), input) << "'" << s << "'";
  }
}

TEST(Lzr, RoundTripRandomAndRepetitive) {
  std::mt19937 rng(10);
  std::vector<std::uint8_t> random(80000);
  for (auto& b : random) b = static_cast<std::uint8_t>(rng());
  EXPECT_EQ(lzr_decompress(lzr_compress(random)), random);

  std::vector<std::uint8_t> rep;
  for (int i = 0; i < 60000; ++i) rep.push_back(static_cast<std::uint8_t>("abcabd"[i % 6]));
  const auto c = lzr_compress(rep);
  EXPECT_LT(c.size(), rep.size() / 20);
  EXPECT_EQ(lzr_decompress(c), rep);
}

TEST(Lzr, OverlappingMatches) {
  std::vector<std::uint8_t> input(50000, 'z');
  EXPECT_EQ(lzr_decompress(lzr_compress(input)), input);
}

TEST(Lzr, CorruptInputThrows) {
  const auto c = lzr_compress(bytes_of("hello hello hello"));
  auto bad = c;
  bad[0] ^= 0xff;
  EXPECT_THROW((void)lzr_decompress(bad), std::runtime_error);
  std::vector<std::uint8_t> truncated(c.begin(), c.begin() + 10);
  EXPECT_THROW((void)lzr_decompress(truncated), std::runtime_error);
}

TEST(Lzr, SkewedDataBeatsLzhEntropyStage) {
  // A byte stream dominated by one value with sparse structure: rANS's
  // fractional bits should out-compress Huffman's integer code lengths.
  std::mt19937 rng(11);
  std::vector<std::uint8_t> input(120000, 0);
  for (auto& b : input) {
    if (rng() % 64 == 0) b = static_cast<std::uint8_t>(rng() % 256);
  }
  const double rans_ratio = lzr_ratio(input);
  EXPECT_GT(rans_ratio, 5.0);
}

}  // namespace
