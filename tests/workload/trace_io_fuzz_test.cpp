// Property/fuzz battery for the cdbp-trace readers and writer
// (workload/trace_io.*), modelled on tests/serve/protocol_fuzz_test.cpp.
//
// Every mutated input must either parse to a clean end or raise a
// TraceError that names the source and a 1-based `line N` — never a crash,
// an over-read (the asan-ubsan CI job watches), another exception type or
// a hang. Beyond "does not crash", each mutation family folds every
// outcome (kind, full error text, the bits of every record read) into one
// FNV-1a digest that is pinned below, so any change to an accept/reject
// rule, an error message or a line number shows up as a digest mismatch.
//
// The harness is deterministic: a fixed-seed SplitMix64 drives the random
// families. Mutation families:
//
//   * truncation at every byte boundary,
//   * every byte flipped to each CSV/JSON syntax character,
//   * line duplication and pairwise line swaps,
//   * random multi-byte stomps.
//
// A second battery feeds the corpus, a sample of mutants and block-size
// edge cases through a streambuf that yields 1, 7 or 4096 bytes per
// underflow, and demands the same outcome as reading the bytes in one
// piece. A third pins the writer's bytes.
#include "workload/trace_io.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

namespace cdbp {
namespace {

// Deterministic generator (no std::random_device anywhere): SplitMix64.
struct SplitMix64 {
  std::uint64_t state;
  explicit SplitMix64(std::uint64_t seed) : state(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return n ? next() % n : 0; }
};

struct Fnv1a {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  void byte(std::uint8_t b) {
    hash ^= b;
    hash *= 0x100000001B3ULL;
  }
  void word(std::uint64_t w) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(w >> (8 * i)));
  }
  void bytes(const std::string& s) {
    word(s.size());
    for (char c : s) byte(static_cast<std::uint8_t>(c));
  }
};

std::uint64_t bitsOf(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

const char kSource[] = "fuzz.trace";

// What reading one byte string to the end produced.
struct Outcome {
  bool parsed = false;  // clean end of input; otherwise `error` is set
  std::string error;
  std::size_t dims = 0;
  std::vector<std::uint64_t> bits;  // arrival, departure, sizes... per record

  bool operator==(const Outcome& o) const {
    return parsed == o.parsed && error == o.error && dims == o.dims &&
           bits == o.bits;
  }
};

void fold(Fnv1a& digest, const Outcome& o) {
  digest.byte(o.parsed ? 1 : 0);
  digest.bytes(o.error);
  digest.word(o.dims);
  digest.word(o.bits.size());
  for (std::uint64_t b : o.bits) digest.word(b);
}

// Checks the error-message contract: "<source>, line N: why" with N >= 1.
void expectLineNumbered(const std::string& error) {
  const std::string prefix = std::string(kSource) + ", line ";
  ASSERT_EQ(error.compare(0, prefix.size(), prefix), 0) << error;
  std::size_t i = prefix.size();
  std::size_t digits = 0;
  while (i < error.size() && error[i] >= '0' && error[i] <= '9') {
    ++i;
    ++digits;
  }
  ASSERT_GT(digits, 0u) << error;
  ASSERT_NE(error[prefix.size()], '0') << error;
  ASSERT_EQ(error.compare(i, 2, ": "), 0) << error;
}

// Reads `in` to the end. Anything but TraceError escapes and fails the
// calling test.
Outcome readAll(std::istream& in, TraceFormat format) {
  Outcome o;
  try {
    TraceReader reader(in, format, kSource);
    o.dims = reader.dims();
    TraceRecord record;
    while (reader.next(record)) {
      EXPECT_EQ(record.sizes.size(), reader.dims());
      o.bits.push_back(bitsOf(record.arrival));
      o.bits.push_back(bitsOf(record.departure));
      for (Size s : record.sizes) o.bits.push_back(bitsOf(s));
    }
    o.parsed = true;
  } catch (const TraceError& e) {
    o.error = e.what();
    expectLineNumbered(o.error);
  }
  return o;
}

Outcome readWhole(const std::string& bytes, TraceFormat format) {
  std::istringstream in(bytes);
  return readAll(in, format);
}

// --- corpus ---------------------------------------------------------------

struct Sample {
  std::string bytes;
  TraceFormat format;
};

std::string written(TraceFormat format, std::size_t dims,
                    const std::string& note) {
  std::ostringstream out;
  TraceWriter writer(out, format, dims, note);
  const double sizes[] = {0.5, 0.125, 1.0, 0.3, 0.0625, 0.75};
  for (int i = 0; i < 6; ++i) {
    TraceRecord record;
    record.arrival = i * 0.75;
    record.departure = record.arrival + 1.0 + i / 3.0;
    for (std::size_t d = 0; d < dims; ++d) {
      record.sizes.push_back(sizes[(static_cast<std::size_t>(i) + d) % 6]);
    }
    writer.write(record);
  }
  return out.str();
}

std::vector<Sample> buildCorpus() {
  std::vector<Sample> corpus;
  corpus.push_back({written(TraceFormat::kCsv, 1, "fuzz corpus"),
                    TraceFormat::kCsv});
  corpus.push_back({written(TraceFormat::kCsv, 2, ""), TraceFormat::kCsv});
  corpus.push_back({written(TraceFormat::kJsonl, 1, "fuzz \"corpus\""),
                    TraceFormat::kJsonl});
  corpus.push_back({written(TraceFormat::kJsonl, 2, ""), TraceFormat::kJsonl});
  // Hand-written: CRLF, blank and comment lines, padded cells, signs,
  // exponents and a final line with no newline.
  corpus.push_back({"# cdbp-trace v1\r\narrival, departure ,size,size2\r\n"
                    "\r\n  0, 4.5e0 ,0.5,1\r\n# c\r\n\t1,2,+0.25,1e-3\r\n"
                    "1,3,0.75,0.5",
                    TraceFormat::kCsv});
  corpus.push_back({"{ \"format\" : \"cdbp-trace\", \"version\":1, "
                    "\"dims\":1, \"note\":\"a \\\"q\\\" \\\\ \\/\" }\n"
                    "[ 0 , 4 , 0.5 ]\r\n\n [1,2,1] \n[1,2.5,1e-1]",
                    TraceFormat::kJsonl});
  return corpus;
}

std::vector<std::string> splitLines(const std::string& bytes) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < bytes.size()) {
    std::size_t nl = bytes.find('\n', start);
    std::size_t end = nl == std::string::npos ? bytes.size() : nl + 1;
    lines.push_back(bytes.substr(start, end - start));
    start = end;
  }
  return lines;
}

std::string joinLines(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) out += line;
  return out;
}

// --- mutation families ----------------------------------------------------

using Visit = std::function<void(const Sample&)>;
using Family = void (*)(const std::vector<Sample>&, const Visit&);

void forEachTruncation(const std::vector<Sample>& corpus, const Visit& visit) {
  for (const Sample& s : corpus) {
    for (std::size_t cut = 0; cut <= s.bytes.size(); ++cut) {
      visit(Sample{s.bytes.substr(0, cut), s.format});
    }
  }
}

const char kSyntaxBytes[] = {',', '\n', '\r', ' ', '\t', '#', '[', ']',
                             '"', '.', 'e', '-', '+', '\0'};

void forEachByteFlip(const std::vector<Sample>& corpus, const Visit& visit) {
  for (const Sample& s : corpus) {
    for (std::size_t at = 0; at < s.bytes.size(); ++at) {
      for (char c : kSyntaxBytes) {
        if (s.bytes[at] == c) continue;
        Sample mutated = s;
        mutated.bytes[at] = c;
        visit(mutated);
      }
    }
  }
}

void forEachLineShuffle(const std::vector<Sample>& corpus, const Visit& visit) {
  for (const Sample& s : corpus) {
    const std::vector<std::string> lines = splitLines(s.bytes);
    for (std::size_t i = 0; i < lines.size(); ++i) {
      std::vector<std::string> dup = lines;
      dup.insert(dup.begin() + static_cast<std::ptrdiff_t>(i), lines[i]);
      visit(Sample{joinLines(dup), s.format});
      for (std::size_t j = i + 1; j < lines.size(); ++j) {
        std::vector<std::string> swapped = lines;
        std::swap(swapped[i], swapped[j]);
        visit(Sample{joinLines(swapped), s.format});
      }
    }
  }
}

void forEachRandomStomp(const std::vector<Sample>& corpus, const Visit& visit) {
  for (std::size_t ci = 0; ci < corpus.size(); ++ci) {
    SplitMix64 rng(0x7AACE000u + ci);
    for (int round = 0; round < 512; ++round) {
      Sample mutated = corpus[ci];
      std::size_t stomps = 1 + rng.below(4);
      for (std::size_t k = 0; k < stomps; ++k) {
        std::size_t at = rng.below(mutated.bytes.size());
        std::size_t len = 1 + rng.below(8);
        for (std::size_t b = at; b < at + len && b < mutated.bytes.size();
             ++b) {
          mutated.bytes[b] = static_cast<char>(rng.next() & 0xFF);
        }
      }
      visit(mutated);
    }
  }
}

// Reads every sample in one piece and folds its outcome into a digest.
std::uint64_t familyDigest(Family family) {
  Fnv1a digest;
  family(buildCorpus(), [&digest](const Sample& s) {
    fold(digest, readWhole(s.bytes, s.format));
  });
  return digest.hash;
}

TEST(TraceIoFuzz, CorpusParses) {
  for (const Sample& s : buildCorpus()) {
    Outcome o = readWhole(s.bytes, s.format);
    EXPECT_TRUE(o.parsed) << o.error;
    EXPECT_FALSE(o.bits.empty());
  }
}

// Golden digests over every mutant's outcome, recorded with the
// getline-based reader that the block reader replaced: any drift in an
// accept/reject rule, an error text or a line number changes them.
TEST(TraceIoFuzz, TruncationAtEveryByte) {
  EXPECT_EQ(familyDigest(forEachTruncation), 0x555592B041C25D7FULL);
}

TEST(TraceIoFuzz, SyntaxByteFlips) {
  EXPECT_EQ(familyDigest(forEachByteFlip), 0x86A0EEE318B02734ULL);
}

TEST(TraceIoFuzz, LineDuplicationAndSwaps) {
  EXPECT_EQ(familyDigest(forEachLineShuffle), 0xE1B91F2D3DC0507DULL);
}

TEST(TraceIoFuzz, RandomMultiByteStomps) {
  EXPECT_EQ(familyDigest(forEachRandomStomp), 0x65A268DF2F4FFACBULL);
}

// --- chunked reads ----------------------------------------------------------

// Serves `data` at most `chunk` bytes per underflow, the way a pipe or a
// socket hands a reader short reads.
class ChunkedBuf : public std::streambuf {
 public:
  ChunkedBuf(const std::string& data, std::size_t chunk)
      : data_(data), chunk_(chunk), window_(chunk) {}

 protected:
  int_type underflow() override {
    if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
    if (pos_ >= data_.size()) return traits_type::eof();
    std::size_t n = std::min(chunk_, data_.size() - pos_);
    std::memcpy(window_.data(), data_.data() + pos_, n);
    pos_ += n;
    setg(window_.data(), window_.data(), window_.data() + n);
    return traits_type::to_int_type(window_[0]);
  }

 private:
  const std::string& data_;
  std::size_t chunk_;
  std::vector<char> window_;
  std::size_t pos_ = 0;
};

Outcome readChunked(const std::string& bytes, TraceFormat format,
                    std::size_t chunk) {
  ChunkedBuf buf(bytes, chunk);
  std::istream in(&buf);
  return readAll(in, format);
}

constexpr std::size_t kBlock = 256 * 1024;  // the reader's refill size

const char kCsvHeader[] = "# cdbp-trace v1\narrival,departure,size\n";
const char kJsonlHeader[] = "{\"format\":\"cdbp-trace\",\"version\":1}\n";

// Pads `head` with a filler line so that `tail` starts `offset` bytes
// before the end of the first block (a filler of spaces is a blank line,
// skipped by both flavors).
std::string straddling(const std::string& head, const std::string& tail,
                       std::size_t offset) {
  std::size_t fill = kBlock - head.size() - offset - 1;
  return head + std::string(fill, ' ') + "\n" + tail;
}

// Inputs whose line ends fall on, before and after the reader's block
// boundaries, plus the other byte-level edge cases of the line layer.
std::vector<Sample> blockEdgeCases() {
  std::vector<Sample> cases;
  const std::string csv = kCsvHeader;
  const std::string jsonl = kJsonlHeader;
  for (TraceFormat format : {TraceFormat::kCsv, TraceFormat::kJsonl}) {
    const bool isCsv = format == TraceFormat::kCsv;
    const std::string& head = isCsv ? csv : jsonl;
    auto rec = [isCsv](const char* a, const char* d, const char* s) {
      return isCsv ? std::string(a) + "," + d + "," + s
                   : std::string("[") + a + "," + d + "," + s + "]";
    };
    // A valid record line longer than one block (under the line limit).
    cases.push_back({head + rec("0", "4", "0.5") + "\n" +
                         std::string(300000, ' ') + rec("1", "3", "0.25") +
                         "\n" + rec("2", "5", "0.125") + "\n",
                     format});
    // A record straddling the first block boundary at every offset,
    // with LF and with CRLF ends, and as an unterminated final line.
    const std::string r = rec("1.25", "3.5", "0.5");
    for (std::size_t off = 0; off <= r.size() + 2; ++off) {
      cases.push_back(
          {straddling(head, r + "\n" + rec("2", "4", "1") + "\n", off),
           format});
      cases.push_back(
          {straddling(head, r + "\r\n" + rec("2", "4", "1") + "\r\n", off),
           format});
      cases.push_back({straddling(head, r, off), format});
    }
    // Files of exactly one and two blocks, ending in a newline or not.
    for (std::size_t blocks : {1, 2}) {
      std::string body = head;
      std::size_t i = 0;
      while (body.size() + 64 < blocks * kBlock) {
        body += rec(std::to_string(i).c_str(), std::to_string(i + 2).c_str(),
                    "0.5") + "\n";
        ++i;
      }
      std::string exact = body + std::string(blocks * kBlock - body.size() - 1,
                                             ' ') + "\n";
      cases.push_back({exact, format});
      const std::string last = rec("999", "1000", "1");
      cases.push_back({body + std::string(blocks * kBlock - body.size() -
                                              last.size(), ' ') + last,
                       format});
    }
    // Header only, with and without its final newline; CR-only last line.
    cases.push_back({head, format});
    cases.push_back({head.substr(0, head.size() - 1), format});
    cases.push_back({head + rec("0", "1", "1") + "\r", format});
    // Embedded NUL: inside a record (rejected) and inside a blank-padded
    // line (not blank, so rejected too).
    cases.push_back({head + rec("0", "1", "1") + std::string(1, '\0') + "\n",
                     format});
    cases.push_back({head + " " + std::string(1, '\0') + " \n", format});
  }
  // A NUL inside a CSV comment is skipped with the comment.
  cases.push_back({csv + "# a" + std::string(1, '\0') + "b\n0,1,1\n",
                   TraceFormat::kCsv});
  cases.push_back({"", TraceFormat::kCsv});
  cases.push_back({"\n", TraceFormat::kJsonl});
  return cases;
}

TEST(TraceIoFuzz, BlockEdgeCasesDigest) {
  Fnv1a digest;
  std::size_t parsed = 0;
  for (const Sample& s : blockEdgeCases()) {
    Outcome o = readWhole(s.bytes, s.format);
    parsed += o.parsed ? 1 : 0;
    fold(digest, o);
  }
  EXPECT_GT(parsed, 0u);
  EXPECT_EQ(digest.hash, 0x34242F76C0200F9EULL);
}

TEST(TraceIoFuzz, ChunkedReadsMatchOnePiece) {
  std::vector<Sample> inputs = blockEdgeCases();
  for (const Sample& s : buildCorpus()) inputs.push_back(s);
  forEachTruncation(buildCorpus(),
                    [&inputs](const Sample& s) { inputs.push_back(s); });
  std::size_t k = 0;
  forEachRandomStomp(buildCorpus(), [&inputs, &k](const Sample& s) {
    if (k++ % 8 == 0) inputs.push_back(s);
  });
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const Sample& s = inputs[i];
    const Outcome whole = readWhole(s.bytes, s.format);
    for (std::size_t chunk : {std::size_t{1}, std::size_t{7},
                              std::size_t{4096}}) {
      if (chunk == 1 && s.bytes.size() > 2 * kBlock + 64) continue;
      ASSERT_TRUE(readChunked(s.bytes, s.format, chunk) == whole)
          << "input " << i << ", " << chunk << "-byte chunks: "
          << whole.error;
    }
  }
}

// --- line-length limit -----------------------------------------------------

constexpr std::size_t kMaxLine = 1024 * 1024;  // the reader's line limit

std::string longLineError(std::size_t line) {
  return std::string(kSource) + ", line " + std::to_string(line) +
         ": line longer than 1048576 bytes";
}

TEST(TraceIoFuzz, LineLongerThanOneMebibyteIsRejected) {
  for (TraceFormat format : {TraceFormat::kCsv, TraceFormat::kJsonl}) {
    const bool isCsv = format == TraceFormat::kCsv;
    const std::string head = isCsv ? kCsvHeader : kJsonlHeader;
    const std::string good = isCsv ? "0,4,0.5\n" : "[0,4,0.5]\n";
    // A record padded to 2 MiB, terminated or not: the record before it
    // is still read, and the long line is named by its number.
    const std::string padded = std::string(2 * kMaxLine, ' ') +
                               (isCsv ? "1,3,0.25" : "[1,3,0.25]");
    for (const std::string& bytes :
         {head + good + padded + "\n", head + good + padded}) {
      const Outcome o = readWhole(bytes, format);
      EXPECT_FALSE(o.parsed);
      EXPECT_EQ(o.error, longLineError(isCsv ? 4 : 3));
      EXPECT_EQ(o.bits.size(), 3u);
      EXPECT_TRUE(readChunked(bytes, format, 4096) == o);
    }
    // A 2 MiB first line never reaches the header parser.
    const Outcome header =
        readWhole(std::string(2 * kMaxLine, 'x') + "\n", format);
    EXPECT_EQ(header.error, longLineError(1));
  }
}

TEST(TraceIoFuzz, LineOfExactlyOneMebibyteIsRead) {
  for (TraceFormat format : {TraceFormat::kCsv, TraceFormat::kJsonl}) {
    const bool isCsv = format == TraceFormat::kCsv;
    const std::string head = isCsv ? kCsvHeader : kJsonlHeader;
    const std::string record = isCsv ? "1,3,0.25" : "[1,3,0.25]";
    const std::string line =
        std::string(kMaxLine - record.size(), ' ') + record;
    const Outcome ok = readWhole(head + line + "\n", format);
    EXPECT_TRUE(ok.parsed) << ok.error;
    EXPECT_EQ(ok.bits.size(), 3u);
    // One byte more — here a CR, which counts until it is stripped.
    const Outcome over = readWhole(head + line + "\r\n", format);
    EXPECT_EQ(over.error, longLineError(isCsv ? 3 : 2));
  }
}

// Serves `prefix`, then 'x' forever, counting the bytes it hands out.
class EndlessBuf : public std::streambuf {
 public:
  explicit EndlessBuf(std::string prefix) : window_(std::move(prefix)) {
    setg(window_.data(), window_.data(), window_.data() + window_.size());
    served_ = window_.size();
  }
  std::size_t served() const { return served_; }

 protected:
  int_type underflow() override {
    window_.assign(4096, 'x');
    setg(window_.data(), window_.data(), window_.data() + window_.size());
    served_ += window_.size();
    return traits_type::to_int_type('x');
  }

 private:
  std::string window_;
  std::size_t served_ = 0;
};

TEST(TraceIoFuzz, EndlessLineStopsAtTheLimit) {
  // No newline ever comes: the reader must give up once the line passes
  // the limit, having buffered at most about one block beyond it.
  for (TraceFormat format : {TraceFormat::kCsv, TraceFormat::kJsonl}) {
    const bool isCsv = format == TraceFormat::kCsv;
    EndlessBuf buf(isCsv ? kCsvHeader : kJsonlHeader);
    std::istream in(&buf);
    const Outcome o = readAll(in, format);
    EXPECT_EQ(o.error, longLineError(isCsv ? 3 : 2));
    EXPECT_LE(buf.served(), kMaxLine + 2 * kBlock);
  }
}

// --- writer bytes -----------------------------------------------------------

std::uint64_t digestBytes(const std::string& bytes) {
  Fnv1a digest;
  digest.bytes(bytes);
  return digest.hash;
}

// A seeded 10k-job instance whose doubles exercise the shortest
// round-trip form: repeating fractions, integral values (".0"), equal
// arrivals.
std::vector<TraceRecord> goldenRecords(std::size_t dims) {
  SplitMix64 rng(0x5A7E7ACEu + dims);
  std::vector<TraceRecord> records;
  Time t = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.below(8) != 0) t += static_cast<double>(rng.below(50)) / 7.0;
    Time duration = rng.below(10) == 0
                        ? static_cast<double>(1 + rng.below(20))
                        : static_cast<double>(1 + rng.below(10000)) / 13.0;
    TraceRecord record;
    record.arrival = t;
    record.departure = t + duration;
    for (std::size_t d = 0; d < dims; ++d) {
      record.sizes.push_back(static_cast<double>(1 + rng.below(1000)) /
                             1000.0);
    }
    records.push_back(record);
  }
  return records;
}

std::string readFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

TEST(TraceWriterGolden, SaveTraceBytes) {
  namespace fs = std::filesystem;
  InstanceBuilder builder;
  for (const TraceRecord& r : goldenRecords(1)) {
    builder.add(r.sizes[0], r.arrival, r.departure);
  }
  Instance instance = builder.build();
  for (const char* ext : {".csv", ".jsonl"}) {
    fs::path path = fs::temp_directory_path() /
                    (std::string("cdbp_trace_writer_golden") + ext);
    saveTrace(instance, path.string(), "golden 10k");
    std::string bytes = readFile(path);
    fs::remove(path);
    const std::uint64_t want = std::string(ext) == ".csv"
                                   ? 0xFB05A16E6FE19BA7ULL
                                   : 0x51636DE0EE1867BFULL;
    EXPECT_EQ(digestBytes(bytes), want) << ext << ", " << bytes.size()
                                        << " bytes";
  }
}

TEST(TraceWriterGolden, TwoDimensionalWriterBytes) {
  for (TraceFormat format : {TraceFormat::kCsv, TraceFormat::kJsonl}) {
    std::ostringstream out;
    TraceWriter writer(out, format, 2, "golden 10k, two dims");
    for (const TraceRecord& r : goldenRecords(2)) writer.write(r);
    const std::uint64_t want = format == TraceFormat::kCsv
                                   ? 0xB8E596AFDF2707A5ULL
                                   : 0x62ECE046323F0AA3ULL;
    EXPECT_EQ(digestBytes(out.str()), want) << traceFormatName(format);
  }
}

}  // namespace
}  // namespace cdbp
