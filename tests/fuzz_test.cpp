// Seeded-mutation fuzzing of the bytes that arrive from outside the process
// or off the wire: FASTA/FASTQ text and mpr message frames. Each valid input
// is mutated by byte flips, deletions, inserted record/line/NUL bytes,
// truncation and duplicated lines or byte ranges. Every mutant must either
// be accepted or throw focus::Error; any other exception (std::out_of_range,
// std::length_error, std::bad_alloc, ...) fails the test. The seeds are
// fixed, so a failure reproduces from its SCOPED_TRACE line.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <string>
#include <typeinfo>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "io/fastx.hpp"
#include "io/preprocess.hpp"
#include "mpr/message.hpp"

namespace focus {
namespace {

constexpr int kMutants = 2000;

/// Three FASTQ records: LF and CRLF line ends, a blank line, soft-masked and
/// N bases, low-quality heads and tails for the 3' trimmer to act on.
std::string valid_fastq() {
  const auto record = [](const std::string& header, const std::string& seq,
                         std::size_t bad_head, std::size_t bad_tail,
                         const std::string& eol) {
    std::string qual(seq.size(), 'I');
    std::fill_n(qual.begin(), bad_head, '#');
    std::fill_n(qual.end() - static_cast<std::ptrdiff_t>(bad_tail), bad_tail,
                '#');
    return "@" + header + eol + seq + eol + "+" + eol + qual + eol;
  };
  return record("r1 first read",
                "ACGTACGTTGCAACGTAGCTAGCTAGGCTAGCATCGATCGGATC", 0, 7, "\n") +
         record("r2", "acgtNNacgtACGTACGTACGGGCATCAGCATGCATTTGACCA", 5, 0,
                "\r\n") +
         "\n" +
         record("r3", "GGGGCCCCAAAATTTTGGGGCCCCAAAATTTTGGGGCCCCAAAAT", 10, 0,
                "\n");
}

const std::string kFasta =
    ">contig1 soft-masked\n"
    "ACGTACGTTGCAACGTAGCTAGCTAGGCTA\n"
    "gcatcgatcggatcNNNNACGTACGATCGA\n"
    "\n"
    ">contig2\r\n"
    "TTTTGGGGCCCCAAAATTTTGGGGCCCCAAAATTTTGGGG\r\n"
    ">c3\n"
    "ACGTRYKMACGTACGTACGTACGTACGTACGTACGTAC\n";

/// Runs fn; passes if it returns or throws focus::Error, fails on any other
/// exception.
template <typename Fn>
void expect_returns_or_focus_error(Fn&& fn) {
  try {
    fn();
  } catch (const Error&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << "non-focus exception " << typeid(e).name() << ": "
                  << e.what();
  } catch (...) {
    ADD_FAILURE() << "non-std exception";
  }
}

/// Applies 1-4 seeded mutations to `bytes`. Inserted bytes are the ones the
/// FASTX grammar and the line reader act on.
std::string mutate(std::string bytes, Rng& rng) {
  static constexpr char kInserts[] = {'@', '+', '>', '\r', '\n', '\0'};
  const auto pos = [&](std::size_t extra) {
    return static_cast<std::size_t>(rng.next_below(bytes.size() + extra));
  };
  const int ops = 1 + static_cast<int>(rng.next_below(4));
  for (int op = 0; op < ops; ++op) {
    switch (rng.next_below(5)) {
      case 0:  // byte flip
        if (!bytes.empty()) {
          bytes[pos(0)] ^= static_cast<char>(1 + rng.next_below(255));
        }
        break;
      case 1: {  // delete a short run
        if (bytes.empty()) break;
        const std::size_t at = pos(0);
        bytes.erase(at, 1 + rng.next_below(8));
        break;
      }
      case 2:  // insert a structural byte
        bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(pos(1)),
                     kInserts[rng.next_below(sizeof(kInserts))]);
        break;
      case 3:  // truncate
        bytes.resize(pos(1));
        break;
      default: {  // duplicate the line (or 1-16 byte run) around a position
        if (bytes.empty()) break;
        const std::size_t at = pos(0);
        std::size_t begin = bytes.rfind('\n', at);
        begin = begin == std::string::npos ? 0 : begin + 1;
        std::size_t end = bytes.find('\n', at);
        end = end == std::string::npos ? bytes.size() : end + 1;
        if (end - begin > 256) end = begin + 1 + rng.next_below(16);
        const std::string line = bytes.substr(begin, end - begin);
        bytes.insert(end, line);
        break;
      }
    }
  }
  return bytes;
}

void fuzz_fastx(const std::string& valid, std::uint64_t seed) {
  ASSERT_FALSE(io::parse_fastx_string(valid).empty());
  Rng rng(seed);
  for (int i = 0; i < kMutants; ++i) {
    SCOPED_TRACE("seed=" + std::to_string(seed) + " mutant=" +
                 std::to_string(i));
    const std::string text = mutate(valid, rng);
    io::ReadSet reads;
    bool parsed = false;
    expect_returns_or_focus_error([&] {
      reads = io::parse_fastx_string(text);
      parsed = true;
    });
    if (parsed) {
      expect_returns_or_focus_error(
          [&] { io::preprocess(reads, io::PreprocessConfig{}); });
    }
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(FuzzFastx, MutatedFastqParsesOrThrowsFocusError) {
  fuzz_fastx(valid_fastq(), 0xf4570001);
}

TEST(FuzzFastx, MutatedFastaParsesOrThrowsFocusError) {
  fuzz_fastx(kFasta, 0xf4570002);
}

// A frame shaped like the drivers' record frames: scalars, a string, a flat
// record vector and a counted list of sub-path vectors (traverse's layout).
mpr::Message build_frame() {
  mpr::Message m;
  m.pack<std::uint32_t>(7);
  m.pack<double>(0.25);
  m.pack_string("phase-3 records");
  m.pack_vector<std::uint64_t>({11, 22, 33, 44});
  const std::vector<std::vector<std::uint32_t>> paths = {{1, 2, 3}, {}, {9}};
  m.pack(static_cast<std::uint32_t>(paths.size()));
  for (const auto& p : paths) m.pack_vector(p);
  return m;
}

void decode_frame(mpr::Message& m) {
  m.unpack<std::uint32_t>();
  m.unpack<double>();
  m.unpack_string();
  m.unpack_vector<std::uint64_t>();
  const std::uint32_t n = m.unpack_count(sizeof(std::uint64_t));
  for (std::uint32_t i = 0; i < n; ++i) m.unpack_vector<std::uint32_t>();
  FOCUS_CHECK(m.fully_consumed(), "trailing bytes in frame");
}

TEST(FuzzMessage, MutatedFramesDecodeOrThrowFocusError) {
  // Message exposes no raw bytes, so read the valid frame back one byte at a
  // time and rebuild each mutant the same way.
  mpr::Message valid = build_frame();
  std::string bytes;
  while (!valid.fully_consumed()) {
    bytes.push_back(static_cast<char>(valid.unpack<std::uint8_t>()));
  }
  {
    mpr::Message copy = build_frame();
    decode_frame(copy);
  }
  Rng rng(0xf4570003);
  for (int i = 0; i < kMutants; ++i) {
    SCOPED_TRACE("mutant=" + std::to_string(i));
    const std::string mutant = mutate(bytes, rng);
    mpr::Message m;
    for (const char c : mutant) m.pack(static_cast<std::uint8_t>(c));
    expect_returns_or_focus_error([&] { decode_frame(m); });
    if (::testing::Test::HasFailure()) return;
  }
}

}  // namespace
}  // namespace focus
