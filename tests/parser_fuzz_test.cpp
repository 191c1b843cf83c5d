// Seeded mutation fuzz over the five text formats: .fdf, .mlf, .fft, .net
// and serve traces, all read through util's LineLexer.
//
// Every committed sample (plus one generator-rendered serve trace) seeds a
// fixed-seed stream of mutants: byte flips, inserts and deletes, token
// drops and duplicates, line truncations and CRLF conversion. Each mutant
// must either parse, or be rejected with an InvalidInput located as
// "<source>:<line>: ..." (only the empty-input messages carry no line). No
// other exception type may escape a parser. Accepted inputs must
// round-trip parse -> write -> parse to equal values (.net through a
// renderer local to this file: the library has no .net writer).
// The budget is fixed so the suite runs in seconds, sanitizers included.
#include <gtest/gtest.h>

#include <cctype>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "comm/net.hpp"
#include "fpga/faults.hpp"
#include "fpga/fdf.hpp"
#include "model/library.hpp"
#include "service/trace.hpp"
#include "sim/workload.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace rr {
namespace {

constexpr std::uint64_t kSeed = 0x5eed'f022ULL;
constexpr int kMutantsPerSeed = 2000;

// The sample fabric's dimensions, which the sample service trace targets.
constexpr int kFabricW = 40;
constexpr int kFabricH = 12;

std::string read_data(const std::string& name) {
  std::ifstream in(std::string(RR_DATA_DIR) + "/" + name);
  EXPECT_TRUE(in.good()) << "cannot open data/" << name;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

const std::vector<model::Module>& sample_library() {
  static const std::vector<model::Module> lib =
      model::parse_mlf_string(read_data("sample_modules.mlf"));
  return lib;
}

// --- Mutations -------------------------------------------------------------

// Byte values worth inserting: the format's own separators and digits
// dominate, any byte can appear.
char interesting_byte(Rng& rng) {
  static constexpr char kBytes[] = " \t\n\r#@,.-+0123456789xCBS";
  if (rng.bounded(4) == 0) return static_cast<char>(rng.bounded(256));
  return kBytes[rng.bounded(sizeof(kBytes) - 1)];
}

// [begin, end) of the line holding byte `pos` (end excludes the '\n').
std::pair<std::size_t, std::size_t> line_around(const std::string& s,
                                                std::size_t pos) {
  const std::size_t nl = pos == 0 ? std::string::npos : s.rfind('\n', pos - 1);
  const std::size_t begin = nl == std::string::npos ? 0 : nl + 1;
  const std::size_t end = std::min(s.find('\n', begin), s.size());
  return {begin, end};
}

// Whitespace-separated tokens of s[begin, end) as (offset, length) pairs.
std::vector<std::pair<std::size_t, std::size_t>> tokens_in(
    const std::string& s, std::size_t begin, std::size_t end) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  std::size_t i = begin;
  while (i < end) {
    while (i < end && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    const std::size_t start = i;
    while (i < end && !std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    if (i > start) out.emplace_back(start, i - start);
  }
  return out;
}

void mutate_once(std::string& s, Rng& rng) {
  if (s.empty()) {
    s.push_back(interesting_byte(rng));
    return;
  }
  const std::size_t pos = rng.bounded(s.size());
  switch (rng.bounded(7)) {
    case 0:  // byte flip
      s[pos] = static_cast<char>(s[pos] ^ (1 << rng.bounded(8)));
      break;
    case 1:  // byte insert
      s.insert(s.begin() + static_cast<std::ptrdiff_t>(pos),
               interesting_byte(rng));
      break;
    case 2:  // byte delete
      s.erase(pos, 1);
      break;
    case 3:    // token drop
    case 4: {  // token duplicate
      const auto [begin, end] = line_around(s, pos);
      const auto tokens = tokens_in(s, begin, end);
      if (tokens.empty()) break;
      const auto [at, len] = tokens[rng.bounded(tokens.size())];
      if (rng.bounded(2) == 0 && s.size() > 1) {
        s.erase(at, len);
      } else {
        s.insert(at, s.substr(at, len) + ' ');
      }
      break;
    }
    case 5: {  // line truncation
      const auto [begin, end] = line_around(s, pos);
      const std::size_t cut = begin + rng.bounded(end - begin + 1);
      s.erase(cut, end - cut);
      break;
    }
    case 6: {  // CRLF line endings
      std::string crlf;
      crlf.reserve(s.size() + s.size() / 16);
      for (const char ch : s) {
        if (ch == '\n') crlf.push_back('\r');
        crlf.push_back(ch);
      }
      s = std::move(crlf);
      break;
    }
  }
}

std::string mutant(const std::string& seed, Rng& rng) {
  std::string s = seed;
  const int count = 1 + static_cast<int>(rng.bounded(3));
  for (int i = 0; i < count; ++i) mutate_once(s, rng);
  return s;
}

// --- Outcome checks ----------------------------------------------------------

// "<source>:<line>: " with a 1-based decimal line number.
bool located(const std::string& what, const std::string& source) {
  if (what.compare(0, source.size() + 1, source + ":") != 0) return false;
  std::size_t i = source.size() + 1;
  const std::size_t digits = i;
  while (i < what.size() && std::isdigit(static_cast<unsigned char>(what[i])))
    ++i;
  if (i == digits || what[digits] == '0') return false;
  return what.compare(i, 2, ": ") == 0;
}

struct Tally {
  int accepted = 0;
  int rejected = 0;
};

// Run `parse_and_check` on `input`: success, or an InvalidInput located at
// `source` (or equal to `unlocated`, the format's empty-input message).
void expect_clean_outcome(const std::string& input, const std::string& source,
                          const std::string& unlocated,
                          const std::function<void()>& parse_and_check,
                          Tally& tally) {
  try {
    parse_and_check();
    ++tally.accepted;
  } catch (const InvalidInput& e) {
    ++tally.rejected;
    const std::string what = e.what();
    if (!located(what, source) && (unlocated.empty() || what != unlocated))
      ADD_FAILURE() << "unlocated error '" << what << "' for input:\n"
                    << input;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "non-InvalidInput exception '" << e.what()
                  << "' for input:\n"
                  << input;
  }
}

void expect_same_modules(const std::vector<model::Module>& a,
                         const std::vector<model::Module>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t m = 0; m < a.size(); ++m) {
    EXPECT_EQ(a[m].name(), b[m].name());
    ASSERT_EQ(a[m].shapes().size(), b[m].shapes().size());
    for (std::size_t s = 0; s < a[m].shapes().size(); ++s) {
      const auto& ga = a[m].shapes()[s].typed();
      const auto& gb = b[m].shapes()[s].typed();
      ASSERT_EQ(ga.size(), gb.size());
      for (std::size_t g = 0; g < ga.size(); ++g) {
        EXPECT_EQ(ga[g].resource, gb[g].resource);
        EXPECT_TRUE(ga[g].cells == gb[g].cells);
      }
    }
  }
}

// Renders `nets` in the .net format: modules first, then terminals. Each
// Net keeps the two kinds in separate lists, so the order between them does
// not survive a parse anyway.
std::string render_nets(const comm::NetList& nets) {
  std::ostringstream out;
  for (const comm::Net& net : nets.nets) {
    out << "net " << net.weight;
    for (const std::string& module : net.modules) out << ' ' << module;
    for (const Point& t : net.terminals) out << " @" << t.x << ',' << t.y;
    out << '\n';
  }
  return out.str();
}

void expect_same_serve(const service::ServeTrace& a,
                       const service::ServeTrace& b) {
  EXPECT_EQ(a.tenants, b.tenants);
  ASSERT_EQ(a.requests.size(), b.requests.size());
  for (std::size_t i = 0; i < a.requests.size(); ++i)
    EXPECT_EQ(a.requests[i], b.requests[i]) << "request " << i;
}

// Fuzz one seed text through `check`, which parses (and round-trips) it.
template <class Check>
void fuzz(const std::string& seed_text, std::uint64_t stream,
           const std::string& source, const std::string& unlocated,
           Check check) {
  Tally tally;
  // The unmutated seed must parse.
  check(seed_text);
  Rng rng(kSeed ^ stream);
  for (int i = 0; i < kMutantsPerSeed && !::testing::Test::HasFailure(); ++i) {
    const std::string input = mutant(seed_text, rng);
    expect_clean_outcome(
        input, source, unlocated, [&] { check(input); }, tally);
  }
  // Both outcomes occur, or the mutations are not reaching the grammar.
  EXPECT_GT(tally.accepted, 0) << source;
  EXPECT_GT(tally.rejected, 0) << source;
}

TEST(ParserFuzz, Fdf) {
  fuzz(read_data("sample_fabric.fdf"), 1, "fdf", "fdf: empty fabric file",
       [](const std::string& text) {
         const fpga::Fabric fabric = fpga::parse_fdf_string(text);
         const fpga::Fabric again =
             fpga::parse_fdf_string(fpga::write_fdf_string(fabric));
         EXPECT_TRUE(again == fabric);
         EXPECT_EQ(again.name(), fabric.name());
       });
}

TEST(ParserFuzz, Mlf) {
  fuzz(read_data("sample_modules.mlf"), 2, "mlf", "",
       [](const std::string& text) {
         const auto modules = model::parse_mlf_string(text);
         expect_same_modules(
             model::parse_mlf_string(model::write_mlf_string(modules)),
             modules);
       });
}

TEST(ParserFuzz, Fft) {
  fuzz(read_data("sample_faults.fft"), 3, "fft", "fft: empty fault trace",
       [](const std::string& text) {
         const fpga::FaultTrace trace = fpga::parse_fault_trace_string(text);
         const fpga::FaultTrace again = fpga::parse_fault_trace_string(
             fpga::write_fault_trace_string(trace));
         EXPECT_EQ(again.width, trace.width);
         EXPECT_EQ(again.height, trace.height);
         EXPECT_EQ(again.events, trace.events);
       });
}

TEST(ParserFuzz, Net) {
  fuzz(read_data("sample_nets.net"), 4, "net", "",
       [](const std::string& text) {
         const comm::NetList nets = comm::parse_nets(text);
         const comm::NetList again = comm::parse_nets(render_nets(nets));
         ASSERT_EQ(again.nets.size(), nets.nets.size());
         for (std::size_t i = 0; i < nets.nets.size(); ++i) {
           const comm::Net& a = again.nets[i];
           const comm::Net& b = nets.nets[i];
           EXPECT_EQ(a.weight, b.weight) << "net " << i;
           EXPECT_EQ(a.modules, b.modules) << "net " << i;
           EXPECT_EQ(a.terminals, b.terminals) << "net " << i;
         }
       });
}

void fuzz_serve(const std::string& seed_text, std::uint64_t stream) {
  const std::vector<model::Module>& lib = sample_library();
  fuzz(seed_text, stream, "serve", "", [&](const std::string& text) {
    const service::ServeTrace trace = service::parse_serve_trace_text(
        text, "serve", lib, kFabricW, kFabricH);
    expect_same_serve(
        service::parse_serve_trace_text(sim::WorkloadGenerator::render(trace,
                                                                       lib),
                                        "serve", lib, kFabricW, kFabricH),
        trace);
  });
}

TEST(ParserFuzz, ServeSample) {
  fuzz_serve(read_data("sample_service.txt"), 5);
}

TEST(ParserFuzz, ServeRendered) {
  // A generated trace covers deadlines and every fault/repair line kind.
  sim::WorkloadParams params;
  params.tenants = 3;
  params.requests = 120;
  params.seed = 17;
  params.deadline_base_ms = 2.0;
  params.p_storm_start = 0.05;
  sim::WorkloadGenerator generator(params, sample_library(), kFabricW,
                                   kFabricH);
  fuzz_serve(sim::WorkloadGenerator::render(generator.generate(),
                                            sample_library()),
             6);
}

}  // namespace
}  // namespace rr
