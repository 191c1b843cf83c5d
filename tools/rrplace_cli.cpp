// rrplace command-line tool — the "interactive tool" use the paper's
// conclusion targets: place a module library on a fabric description and
// print/emit the floorplan, or replay online, fault, service and generated
// workloads on it.
//
//   rrplace_cli <command> [arguments] --fabric F.fdf --modules M.mlf [options]
//
// Every command parses its arguments against its own flag table (commands()
// below): a flag the command does not read is an error that names both, and
// `rrplace_cli <command> --help` prints the table.
#include <charconv>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "rrplace.hpp"
#include "util/strings.hpp"

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
// Upper bound of every thread-count flag, checked before any thread starts.
constexpr double kMaxThreads = 256;

// The alternatives of --mode and --policy, in the order of the values they
// select.
constexpr const char* kModeChoices = "bnb|lns|auto|restarts";
constexpr rr::placer::PlacerMode kModes[] = {
    rr::placer::PlacerMode::kBranchAndBound, rr::placer::PlacerMode::kLns,
    rr::placer::PlacerMode::kAuto, rr::placer::PlacerMode::kRestarts};
constexpr const char* kPolicyChoices = "firstfit|bestfit|bottomleft|commcost";
constexpr rr::AnchorPolicy kPolicies[] = {
    rr::AnchorPolicy::kFirstFit, rr::AnchorPolicy::kBestFit,
    rr::AnchorPolicy::kBottomLeft, rr::AnchorPolicy::kCommCost};

enum class Kind {
  kSwitch,  // present or absent, no value
  kText,    // a path or name, taken verbatim
  kInt,     // a whole int within [min, max]
  kSeed,    // any unsigned 64-bit value
  kReal,    // a finite double within [min, max]
  kChoice,  // one of the alternatives listed in `value`
};

// One row of a command's flag table. Positional arguments are rows too:
// their names carry no "--" and the bare tokens fill them in order.
struct Flag {
  std::string_view name;
  Kind kind;
  std::string_view value;  // placeholder in --help; "a|b|c" for kChoice
  std::string_view help;
  std::string fallback{};  // value when the flag is absent ("" = none)
  double min = -kInf;
  double max = kInf;
  std::string_view needs{};  // a flag this one requires
  bool required = false;     // positional rows are always required

  [[nodiscard]] bool positional() const { return !name.starts_with("--"); }
  // "--name" for options, "<name>" for positionals.
  [[nodiscard]] std::string display() const {
    std::string out;
    if (!positional()) return out.append(name);
    return out.append("<").append(name).append(">");
  }
};

struct Inputs;
class Args;

struct Command {
  std::string_view name;
  std::string_view summary;
  std::vector<Flag> flags;
  int (*run)(const Args&, const Inputs&);

  [[nodiscard]] const Flag* find(std::string_view flag) const {
    for (const Flag& row : flags)
      if (row.name == flag) return &row;
    return nullptr;
  }
};

// Position of `text` among a kChoice row's "a|b|c" alternatives; -1 when it
// is none of them.
int choice_index(const Flag& row, std::string_view text) {
  std::string_view rest = row.value;
  for (int index = 0;; ++index) {
    const std::size_t bar = rest.find('|');
    if (rest.substr(0, bar) == text) return index;
    if (bar == std::string_view::npos) return -1;
    rest.remove_prefix(bar + 1);
  }
}

// Whole-token number parsing: trailing garbage, an empty token and values
// outside T's range all fail.
template <typename T>
std::optional<T> parse_number(std::string_view text) {
  T value{};
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size()) return {};
  return value;
}

// The parsed command line of one command. Values were checked against their
// rows while parsing; an absent flag reads as its row's fallback, and asking
// for a flag outside the table is a programming error.
class Args {
 public:
  explicit Args(const Command& command) : command(command) {}

  const Command& command;

  [[nodiscard]] bool has(std::string_view flag) const {
    return values_.count(flag) != 0;
  }
  [[nodiscard]] std::string text(std::string_view flag) const {
    return std::string(raw(flag));
  }
  [[nodiscard]] int integer(std::string_view flag) const {
    return parse_number<int>(raw(flag)).value();
  }
  [[nodiscard]] double real(std::string_view flag) const {
    return parse_number<double>(raw(flag)).value();
  }
  [[nodiscard]] std::uint64_t seed() const {
    return parse_number<std::uint64_t>(raw("--seed")).value();
  }
  [[nodiscard]] std::size_t choice(std::string_view flag) const {
    const std::string_view value = raw(flag);
    return static_cast<std::size_t>(choice_index(*command.find(flag), value));
  }

  void set(std::string_view flag, std::string_view value) {
    values_[flag] = value;
  }

 private:
  [[nodiscard]] std::string_view raw(std::string_view flag) const {
    if (const auto it = values_.find(flag); it != values_.end())
      return it->second;
    const Flag* row = command.find(flag);
    if (row == nullptr)
      throw std::logic_error(std::string(command.name) + " reads " +
                             std::string(flag) + ", which is not in its table");
    return row->fallback;
  }

  std::map<std::string_view, std::string_view, std::less<>> values_;
};

// What every command reads: the fabric (with --bus-period lanes), its
// region (pre-damaged by --faults), the module library (bus-attached by
// --bus-attach) and the optional --nets.
struct Inputs {
  std::shared_ptr<const rr::fpga::Fabric> fabric;
  rr::fpga::PartialRegion region;
  std::vector<rr::model::Module> modules;
  std::shared_ptr<const rr::comm::NetList> nets;
};

// A fault trace for this fabric; one for another size is refused rather
// than cropped onto the device.
rr::fpga::FaultTrace load_fault_trace_for(const std::string& path,
                                          const rr::fpga::Fabric& fabric) {
  rr::fpga::FaultTrace trace = rr::fpga::load_fault_trace(path);
  if (trace.width != fabric.width() || trace.height != fabric.height())
    throw rr::InvalidInput(
        "fault trace is " + std::to_string(trace.width) + 'x' +
        std::to_string(trace.height) + " but the fabric is " +
        std::to_string(fabric.width()) + 'x' + std::to_string(fabric.height()));
  return trace;
}

Inputs load_inputs(const Args& args) {
  rr::fpga::Fabric fabric_desc = rr::fpga::load_fdf(args.text("--fabric"));
  if (args.has("--bus-period")) {
    rr::comm::BusSpec bus;
    bus.lane_period = args.integer("--bus-period");
    bus.lane_offset = args.integer("--bus-offset");
    fabric_desc = rr::comm::with_bus_lanes(fabric_desc, bus);
  }
  auto fabric =
      std::make_shared<const rr::fpga::Fabric>(std::move(fabric_desc));
  rr::fpga::PartialRegion region(fabric);
  // Pre-existing damage: the resulting fault map masks the region's
  // availability, so every placer works around the dead tiles.
  if (args.has("--faults"))
    region.apply_faults(rr::fpga::fault_map_from_trace(
        load_fault_trace_for(args.text("--faults"), *fabric)));
  auto modules = rr::model::load_mlf(args.text("--modules"));
  if (modules.empty()) throw rr::InvalidInput("module library is empty");
  if (args.has("--bus-attach"))
    // Throws ModelError when the row is outside a shape.
    modules = rr::comm::with_bus_attachment(modules,
                                            args.integer("--bus-attach"));
  std::shared_ptr<const rr::comm::NetList> nets;
  if (args.has("--nets"))
    nets = std::make_shared<const rr::comm::NetList>(
        rr::comm::load_nets(args.text("--nets")));
  return Inputs{std::move(fabric), std::move(region), std::move(modules),
                std::move(nets)};
}

// With --stats-json - the document owns stdout; the human-readable report
// moves to stderr so the output stays machine-parseable.
std::ostream& report_stream(const Args& args) {
  return args.has("--stats-json") && args.text("--stats-json") == "-"
             ? std::cerr
             : std::cout;
}

// Write `text` to `path`, "-" meaning stdout; returns the exit status.
int write_output(const std::string& path, const std::string& text) {
  if (path == "-") {
    std::cout << text;
    return 0;
  }
  std::ofstream out(path);
  if (!out) {
    std::cerr << "error: cannot write " << path << '\n';
    return 2;
  }
  out << text;
  return 0;
}

// A JSON object of `fields`, in order.
rr::json::Value json_object(
    std::initializer_list<std::pair<const char*, rr::json::Value>> fields) {
  rr::json::Value doc = rr::json::Value::object();
  for (const auto& [key, value] : fields) doc.set(key, value);
  return doc;
}

// Named top-level sections a command adds to its stats document.
using Sections = std::vector<std::pair<const char*, rr::json::Value>>;

// The rrplace-stats-v1 document around `config` and `sections`, written to
// --stats-json. A replay has no offline solve: its default outcome keeps
// the search/space/result sections well-formed and the replay data lives
// in its own section.
int write_stats(const Args& args, const Inputs& in,
                const rr::placer::PlacementOutcome& outcome,
                const std::string& producer, rr::json::Value config,
                Sections sections) {
  rr::json::Value doc = rr::placer::solve_stats_json(
      in.region, in.modules, outcome, producer, std::move(config));
  for (auto& [key, section] : sections) doc.set(key, std::move(section));
  return write_output(args.text("--stats-json"), doc.dump(2) + '\n');
}

// The optional "comm" stats section: net count, active weight, and the
// total doubled-HPWL of the final placement (0 when nothing is placed).
rr::json::Value comm_stats_json(const Args& args, const rr::comm::NetList& nets,
                                long wirelength2) {
  return json_object({{"nets", nets.nets.size()},
                      {"weight", args.integer("--comm-weight")},
                      {"wirelength2", wirelength2}});
}

rr::placer::PlacerOptions placer_options(const Args& args, const Inputs& in) {
  rr::placer::PlacerOptions options;
  options.use_alternatives = !args.has("--no-alternatives");
  options.time_limit_seconds = args.real("--time-limit");
  options.mode = kModes[args.choice("--mode")];
  options.workers = args.integer("--workers");
  options.seed = args.seed();
  options.nets = in.nets.get();
  options.comm_weight = args.integer("--comm-weight");
  return options;
}

// The OnlinePlacer configuration of the online replay and of every service
// tenant; the defrag deadline applies where the command takes --defrag.
rr::baseline::OnlineOptions online_options(const Args& args,
                                           const Inputs& in) {
  rr::baseline::OnlineOptions online;
  online.use_alternatives = !args.has("--no-alternatives");
  online.policy = kPolicies[args.choice("--policy")];
  if (args.command.find("--defrag") != nullptr) {
    online.defrag.deadline_seconds = args.real("--defrag");
    online.defrag.seed = args.seed();
  }
  online.nets = in.nets;
  online.comm_weight = args.integer("--comm-weight");
  return online;
}

// The placement service of `serve` and `soak`: one tenant per trace tenant,
// each on a private copy of the fabric.
std::unique_ptr<rr::service::PlacementService> start_service(
    const Args& args, const Inputs& in, int tenants) {
  rr::service::Tenant::Config config;
  config.fabric = in.fabric;
  config.library = in.modules;
  config.online = online_options(args, in);
  std::vector<rr::service::Tenant::Config> configs(
      static_cast<std::size_t>(tenants), config);
  rr::service::ServiceOptions options;
  options.workers = args.integer("--workers");
  options.queue_capacity = static_cast<std::size_t>(args.integer("--queue"));
  options.cache_capacity =
      static_cast<std::size_t>(args.integer("--cache-cap"));
  if (args.command.find("--quota") != nullptr) {
    options.tenant_inflight_quota = args.integer("--quota");
    options.submit_retry_budget = args.integer("--retry");
  }
  return std::make_unique<rr::service::PlacementService>(
      std::move(configs), options, !args.has("--no-cache"));
}

// The "service" stats section of `serve` and `soak`.
rr::json::Value service_json(const rr::service::ServiceStats& stats,
                             int tenants, int workers, double seconds,
                             double throughput) {
  rr::json::Value doc = stats.to_json();
  doc.set("tenants", tenants);
  doc.set("workers", workers);
  doc.set("seconds", seconds);
  doc.set("throughput_rps", throughput);
  return doc;
}

// Offline CP solve: report (and validate) the floorplan.
int run_solve(const Args& args, const Inputs& in) {
  rr::placer::Placer placer(in.region, in.modules, placer_options(args, in));
  const auto outcome = placer.place();

  if (args.has("--stats-json")) {
    rr::json::Value config =
        json_object({{"fabric", args.text("--fabric")},
                     {"modules", args.text("--modules")},
                     {"alternatives", !args.has("--no-alternatives")},
                     {"time_limit", args.real("--time-limit")},
                     {"workers", args.integer("--workers")},
                     {"seed", args.seed()}});
    Sections sections;
    if (in.nets != nullptr) {
      config.set("nets", args.text("--nets"));
      long wirelength2 = 0;
      if (outcome.solution.feasible) {
        const rr::comm::BoundNets bound(*in.nets, in.modules);
        std::vector<rr::comm::Center2> centers(in.modules.size());
        for (const auto& p : outcome.solution.placements) {
          const rr::Rect box = in.modules[static_cast<std::size_t>(p.module)]
                                   .shapes()[static_cast<std::size_t>(p.shape)]
                                   .bounding_box();
          centers[static_cast<std::size_t>(p.module)] =
              rr::comm::center2(box, p.x, p.y);
        }
        wirelength2 = bound.wirelength2(centers);
      }
      sections.emplace_back("comm",
                            comm_stats_json(args, *in.nets, wirelength2));
    }
    if (write_stats(args, in, outcome, "rrplace_cli", std::move(config),
                    std::move(sections)) != 0)
      return 2;
  }

  std::ostream& human = report_stream(args);
  if (!outcome.solution.feasible) {
    human << "infeasible"
          << (outcome.optimal ? " (proven: no placement exists)" : "") << '\n';
    return 1;
  }
  const auto report =
      rr::placer::validate(in.region, in.modules, outcome.solution);
  if (!report.ok()) {
    std::cerr << "internal error: solution failed validation: "
              << report.errors.front() << '\n';
    return 3;
  }
  if (!args.has("--quiet")) {
    human << rr::render::placement_ascii(in.region, in.modules,
                                         outcome.solution)
          << rr::render::legend();
  }
  human << "modules: " << in.modules.size()
        << "  extent: " << outcome.solution.extent
        << (outcome.optimal ? " (optimal)" : " (best found)")
        << "  utilization: "
        << rr::TextTable::pct(rr::placer::spanned_utilization(
               in.region, in.modules, outcome.solution))
        << "  time: " << rr::TextTable::num(outcome.seconds, 3) << "s\n";
  for (const auto& p : outcome.solution.placements) {
    human << "  " << in.modules[static_cast<std::size_t>(p.module)].name()
          << " shape=" << p.shape << " at (" << p.x << "," << p.y << ")\n";
  }
  if (args.has("--svg")) {
    const std::string svg = args.text("--svg");
    rr::render::save_placement_svg(svg, in.region, in.modules,
                                   outcome.solution);
    human << "SVG written to " << svg << '\n';
  }
  return 0;
}

// The valid-anchor mask of a module's base shape (the Fig. 4b view).
int run_anchors(const Args& args, const Inputs& in) {
  const std::string name = args.text("module");
  for (const auto& module : in.modules) {
    if (module.name() != name) continue;
    std::cout << rr::render::anchor_mask_ascii(in.region,
                                               module.shapes().front())
              << rr::render::legend();
    return 0;
  }
  std::cerr << "error: no module named '" << name << "'\n";
  return 2;
}

// Replay an online place/remove trace through the OnlinePlacer and report
// the service level (acceptance ratio) plus defragmentation telemetry.
int run_online(const Args& args, const Inputs& in) {
  const std::string path = args.text("trace");
  std::ifstream file(path);
  if (!file) {
    std::cerr << "error: cannot read trace " << path << '\n';
    return 2;
  }
  auto find_module = [&](const std::string& name) -> const rr::model::Module* {
    for (const auto& m : in.modules)
      if (m.name() == name) return &m;
    return nullptr;
  };
  rr::baseline::OnlinePlacer placer(in.region, online_options(args, in));
  // Names of the live instances (defrag may relocate them, so positions
  // come from live_placements() at the end, not from this map).
  std::unordered_map<int, const rr::model::Module*> live_modules;

  const bool quiet = args.has("--quiet");
  std::ostream& human = report_stream(args);
  rr::Stopwatch watch;
  long places = 0, removes = 0, accepted = 0;
  // Errors throw InvalidInput("<path>:<line>: <what>") to main's catch
  // (exit 2), like the library formats.
  rr::LineLexer line(file, path);
  while (line.next()) {
    if (line[0] == "place") {
      const char* usage = "expected: place <id> <module>";
      if (line.size() != 3) line.fail(usage);
      const int id = line.integer(1, usage);
      const std::string name(line[2]);
      if (placer.is_placed(id))
        line.fail("instance " + std::to_string(id) + " already live");
      const rr::model::Module* module = find_module(name);
      if (module == nullptr) line.fail("no module named '" + name + "'");
      ++places;
      const auto placement = placer.place(id, *module);
      if (placement) {
        ++accepted;
        live_modules[id] = module;
      }
      if (!quiet) {
        human << "  place " << id << ' ' << name << ": ";
        if (placement) {
          human << "accepted shape=" << placement->shape << " at ("
                << placement->x << ',' << placement->y << ")\n";
        } else {
          human << "rejected\n";
        }
      }
    } else if (line[0] == "remove") {
      const char* usage = "expected: remove <id>";
      if (line.size() != 2) line.fail(usage);
      const int id = line.integer(1, usage);
      if (!placer.is_placed(id))
        line.fail("instance " + std::to_string(id) + " is not live");
      ++removes;
      placer.remove(id);
      live_modules.erase(id);
      if (!quiet) human << "  remove " << id << '\n';
    } else {
      line.fail("unknown trace op '" + std::string(line[0]) + "'");
    }
  }
  const double seconds = watch.seconds();
  const long rejected = places - accepted;
  const double acceptance =
      places > 0 ? static_cast<double>(accepted) / places : 1.0;
  const auto& defrag = placer.defrag_stats();
  const auto& relocation = placer.relocation_cost();

  human << "trace: " << (places + removes) << " events (" << places
        << " place, " << removes << " remove)  accepted: " << accepted << '/'
        << places << " (" << rr::TextTable::pct(acceptance) << ")\n";
  human << "defrag: deadline " << args.real("--defrag") << "s, "
        << defrag.attempts << " passes, " << defrag.successes
        << " admitted (" << defrag.exact_successes << " exact, "
        << defrag.greedy_successes << " greedy), " << defrag.relocated_modules
        << " modules / " << defrag.relocated_tiles << " tiles relocated\n";
  // Final live wirelength under the loaded nets (names from the replay
  // map, positions from the placer: defrag may have relocated instances).
  long final_wirelength2 = 0;
  if (in.nets != nullptr) {
    std::vector<rr::comm::NamedPin> pins;
    pins.reserve(live_modules.size());
    for (const auto& p : placer.live_placements()) {
      const rr::model::Module* module = live_modules.at(p.module);
      const rr::Rect box =
          module->shapes()[static_cast<std::size_t>(p.shape)].bounding_box();
      pins.push_back(rr::comm::NamedPin{module->name(),
                                        rr::comm::center2(box, p.x, p.y)});
    }
    final_wirelength2 = rr::comm::pins_wirelength2(*in.nets, pins);
    human << "comm: " << in.nets->nets.size() << " nets, weight "
          << args.integer("--comm-weight") << ", final wirelength2 "
          << final_wirelength2 << '\n';
  }
  human << "final: " << placer.live_count() << " live, occupancy "
        << rr::TextTable::pct(placer.occupancy()) << "  time: "
        << rr::TextTable::num(seconds, 3) << "s\n";

  if (!args.has("--stats-json")) return 0;
  rr::json::Value config =
      json_object({{"fabric", args.text("--fabric")},
                   {"modules", args.text("--modules")},
                   {"alternatives", !args.has("--no-alternatives")},
                   {"trace", path},
                   {"defrag_deadline_seconds", args.real("--defrag")},
                   {"seed", args.seed()},
                   {"policy", args.text("--policy")}});
  if (in.nets != nullptr) config.set("nets", args.text("--nets"));
  rr::placer::PlacementOutcome outcome;
  outcome.seconds = seconds;
  Sections sections;
  sections.emplace_back(
      "online",
      json_object(
          {{"places", places},
           {"removes", removes},
           {"accepted", accepted},
           {"rejected", rejected},
           {"acceptance_ratio", acceptance},
           {"defrag",
            json_object({{"attempts", defrag.attempts},
                         {"successes", defrag.successes},
                         {"exact_successes", defrag.exact_successes},
                         {"greedy_successes", defrag.greedy_successes},
                         {"relocated_modules", defrag.relocated_modules},
                         {"relocated_tiles", defrag.relocated_tiles},
                         {"deadline_expiries", defrag.deadline_expiries},
                         {"rejects", defrag.rejects},
                         {"retry_skips", defrag.retry_skips},
                         {"budget_skips", defrag.budget_skips}})},
           {"relocation",
            json_object({{"tiles_cleared", relocation.tiles_cleared},
                         {"tiles_written", relocation.tiles_written},
                         {"modules_moved", relocation.modules_loaded}})},
           {"final_live", placer.live_count()},
           {"final_occupancy", placer.occupancy()}}));
  if (in.nets != nullptr)
    sections.emplace_back(
        "comm", comm_stats_json(args, *in.nets, final_wirelength2));
  return write_stats(args, in, outcome, "rrplace_cli-online",
                     std::move(config), std::move(sections));
}

// Describe a fault event in one log token, e.g. "column 7 permanent".
std::string fault_event_text(const rr::fpga::FaultEvent& event) {
  using Op = rr::fpga::FaultEvent::Op;
  const char* kind = event.kind == rr::fpga::FaultKind::kPermanent
                         ? "permanent"
                         : "transient";
  std::ostringstream out;
  switch (event.op) {
    case Op::kTile:
      out << "tile " << event.rect.x << ',' << event.rect.y << ' ' << kind;
      break;
    case Op::kColumn:
      out << "column " << event.rect.x << ' ' << kind;
      break;
    case Op::kRect:
      out << "rect " << event.rect.x << ',' << event.rect.y << '+'
          << event.rect.width << 'x' << event.rect.height << ' ' << kind;
      break;
    case Op::kRepairTile:
      out << "repair " << event.rect.x << ',' << event.rect.y;
      break;
    case Op::kRepairTransient:
      out << "repair-transient";
      break;
  }
  return out.str();
}

// Availability replay: offline placement, admit into the recovery manager,
// then degrade the fabric event by event and report what survived.
int run_faults(const Args& args, const Inputs& in) {
  const std::string path = args.text("trace.fft");
  const rr::fpga::FaultTrace trace = load_fault_trace_for(path, *in.fabric);

  rr::placer::Placer placer(in.region, in.modules, placer_options(args, in));
  const auto outcome = placer.place();
  std::ostream& human = report_stream(args);
  if (!outcome.solution.feasible) {
    human << "infeasible: no initial placement to recover\n";
    return 1;
  }

  rr::runtime::FaultRecoveryOptions recovery_options;
  recovery_options.deadline_seconds = args.real("--deadline");
  recovery_options.use_alternatives = !args.has("--no-alternatives");
  recovery_options.seed = args.seed();
  recovery_options.nets = in.nets;
  recovery_options.comm_weight = args.integer("--comm-weight");
  rr::runtime::FaultRecoveryManager manager(in.region, recovery_options);
  for (const auto& p : outcome.solution.placements)
    manager.admit(p.module, in.modules[static_cast<std::size_t>(p.module)],
                  p.shape, p.x, p.y);
  const int admitted = manager.live_count();

  rr::Stopwatch watch;
  for (const rr::fpga::FaultEvent& event : trace.events) {
    const auto result = manager.on_fault(event);
    if (args.has("--quiet")) continue;
    human << "  " << fault_event_text(event) << ": ";
    if (result.modules_hit == 0 && result.retry_recoveries == 0) {
      human << "no module hit";
    } else {
      human << result.modules_hit << " hit, " << result.recovered
            << " recovered, " << result.parked << " parked";
      if (result.retry_recoveries > 0)
        human << ", " << result.retry_recoveries << " revived";
    }
    human << "  (capacity "
          << rr::TextTable::pct(manager.capacity_retained()) << ", live "
          << manager.live_count() << ")\n";
  }
  const double seconds = watch.seconds();
  const auto& stats = manager.stats();
  const double recovered_fraction =
      stats.modules_hit > 0 ? static_cast<double>(stats.recovered) /
                                  static_cast<double>(stats.modules_hit)
                            : 1.0;

  human << "faults: " << stats.events << " events, " << stats.tiles_faulted
        << " tiles faulted, " << stats.modules_hit << " modules hit\n";
  human << "recovery: " << stats.recovered << '/' << stats.modules_hit
        << " in place (" << stats.inplace_swaps << " swap, "
        << stats.local_replaces << " local, " << stats.defrag_recoveries
        << " defrag, " << stats.greedy_recoveries << " greedy), "
        << stats.retry_recoveries << " revived, " << manager.parked_count()
        << " parked\n";
  human << "final: " << manager.live_count() << '/' << admitted
        << " live, capacity "
        << rr::TextTable::pct(manager.capacity_retained())
        << ", utilization " << rr::TextTable::pct(manager.utilization())
        << "  time: " << rr::TextTable::num(seconds, 3) << "s\n";

  if (!args.has("--stats-json")) return 0;
  rr::json::Value config =
      json_object({{"fabric", args.text("--fabric")},
                   {"modules", args.text("--modules")},
                   {"alternatives", !args.has("--no-alternatives")},
                   {"fault_trace", path},
                   {"fault_deadline_seconds", args.real("--deadline")},
                   {"seed", args.seed()}});
  if (in.nets != nullptr) config.set("nets", args.text("--nets"));
  const auto& cost = manager.recovery_cost();
  Sections sections;
  sections.emplace_back(
      "fault",
      json_object(
          {{"events", stats.events},
           {"tiles_faulted", stats.tiles_faulted},
           {"modules_hit", stats.modules_hit},
           {"recovered", stats.recovered},
           {"recovered_fraction", recovered_fraction},
           {"inplace_swaps", stats.inplace_swaps},
           {"local_replaces", stats.local_replaces},
           {"defrag_recoveries", stats.defrag_recoveries},
           {"greedy_recoveries", stats.greedy_recoveries},
           {"park_transitions", stats.parked},
           {"retries", stats.retries},
           {"retry_recoveries", stats.retry_recoveries},
           {"abandoned", stats.abandoned},
           {"deadline_expiries", stats.deadline_expiries},
           {"relocated_modules", stats.relocated_modules},
           {"relocated_tiles", stats.relocated_tiles},
           {"final_live", manager.live_count()},
           {"final_parked", manager.parked_count()},
           {"capacity_retained", manager.capacity_retained()},
           {"utilization", manager.utilization()},
           {"recovery_cost",
            json_object({{"tiles_cleared", cost.tiles_cleared},
                         {"tiles_written", cost.tiles_written},
                         {"modules_loaded", cost.modules_loaded}})}}));
  if (in.nets != nullptr) {
    // Wirelength of what survived, at its possibly-relocated positions.
    std::vector<rr::comm::NamedPin> pins;
    for (const auto& p : manager.live_placements()) {
      const rr::model::Module& module = manager.module_of(p.module);
      const rr::Rect box =
          module.shapes()[static_cast<std::size_t>(p.shape)].bounding_box();
      pins.push_back(rr::comm::NamedPin{module.name(),
                                        rr::comm::center2(box, p.x, p.y)});
    }
    sections.emplace_back(
        "comm", comm_stats_json(args, *in.nets,
                                rr::comm::pins_wirelength2(*in.nets, pins)));
  }
  return write_stats(args, in, outcome, "rrplace_cli-faults",
                     std::move(config), std::move(sections));
}

// One log token for the overload/lifecycle statuses; nullptr for outcomes
// of requests that actually executed.
const char* shed_text(rr::service::Response::Status status) {
  using Status = rr::service::Response::Status;
  switch (status) {
    case Status::kShedDeadline: return "shed(deadline)";
    case Status::kShedQuota: return "shed(quota)";
    case Status::kShedQueue: return "shed(queue)";
    case Status::kRejectedStopped: return "rejected(stopped)";
    default: return nullptr;
  }
}

// Multi-tenant service replay: parse the whole trace into a request list,
// pump it through the in-process PlacementService (one private fabric per
// tenant, shared solve-context cache), then report throughput, latency
// percentiles, and cache effectiveness.
int run_serve(const Args& args, const Inputs& in) {
  const std::string path = args.text("trace");
  std::ifstream file(path);
  if (!file) {
    std::cerr << "error: cannot read trace " << path << '\n';
    return 2;
  }
  // Shared grammar parser (src/service/trace.*) — the same one the workload
  // generator's output round-trips through. InvalidInput propagates to
  // main's catch (exit 2) with the "<path>:<line>: <what>" message.
  const rr::service::ServeTrace trace = rr::service::parse_serve_trace(
      file, path, in.modules, in.fabric->width(), in.fabric->height());
  const int tenants = trace.tenants;
  const std::vector<rr::service::Request>& requests = trace.requests;
  const auto service = start_service(args, in, tenants);

  rr::Stopwatch watch;
  std::vector<std::future<rr::service::Response>> futures;
  futures.reserve(requests.size());
  for (const auto& request : requests)
    futures.push_back(service->submit(request));
  std::vector<rr::service::Response> responses;
  responses.reserve(futures.size());
  for (auto& future : futures) responses.push_back(future.get());
  const double seconds = watch.seconds();
  service->stop();
  const rr::service::ServiceStats stats = service->stats();
  const double throughput =
      seconds > 0.0 ? static_cast<double>(requests.size()) / seconds : 0.0;

  std::ostream& human = report_stream(args);
  if (!args.has("--quiet")) {
    using Status = rr::service::Response::Status;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const auto& request = requests[i];
      const auto& response = responses[i];
      const char* shed = shed_text(response.status);
      human << "  [t" << request.tenant << "] ";
      switch (request.op) {
        case rr::service::RequestOp::kPlace:
          human << "place " << request.instance << ' '
                << in.modules[static_cast<std::size_t>(request.module)].name()
                << ": ";
          if (response.status == Status::kPlaced) {
            human << "accepted shape=" << response.placement.shape << " at ("
                  << response.placement.x << ',' << response.placement.y
                  << ")";
          } else if (response.status == Status::kRejected) {
            human << "rejected";
          }
          break;
        case rr::service::RequestOp::kRemove:
          human << "remove " << request.instance << ':';
          break;
        case rr::service::RequestOp::kFault:
          human << fault_event_text(request.fault) << ": ";
          if (shed == nullptr)
            human << response.displaced << " displaced, "
                  << response.recovered << " recovered";
          break;
      }
      if (response.status == Status::kError)
        human << "error: " << response.error;
      if (shed != nullptr) human << shed;
      human << '\n';
    }
  }

  human << "serve: " << stats.requests << " requests, " << tenants
        << " tenants on " << service->worker_count() << " workers  time: "
        << rr::TextTable::num(seconds, 3) << "s  throughput: "
        << rr::TextTable::num(throughput, 1) << " req/s\n";
  human << "status: " << stats.placed << " placed, " << stats.rejected
        << " rejected, " << stats.removed << " removed, "
        << stats.fault_events << " faults, " << stats.errors << " errors  "
        << "batching: " << stats.batches << " rounds, "
        << stats.batched_requests << " coalesced\n";
  if (stats.shed.total_shed() > 0) {
    human << "shed: " << stats.shed.shed_deadline << " deadline, "
          << stats.shed.shed_quota << " quota, " << stats.shed.shed_queue
          << " queue, " << stats.shed.rejected_stopped << " stopped ("
          << rr::TextTable::pct(
                 static_cast<double>(stats.shed.total_shed()) /
                 static_cast<double>(stats.shed.submitted))
          << " of " << stats.shed.submitted << " submitted)\n";
  }
  if (!args.has("--no-cache")) {
    human << "cache: " << stats.cache.hits << " hits / " << stats.cache.misses
          << " misses (" << rr::TextTable::pct(stats.cache.hit_rate())
          << "), " << stats.cache.invalidations << " invalidations, "
          << stats.cache.evictions << " evictions, " << stats.cache.entries
          << " entries (cap " << service->cache().capacity() << ")\n";
  } else {
    human << "cache: disabled\n";
  }
  human << "latency: p50 " << rr::TextTable::num(stats.latency_p50_ms, 3)
        << "ms, p99 " << rr::TextTable::num(stats.latency_p99_ms, 3)
        << "ms, max " << rr::TextTable::num(stats.latency_max_ms, 3)
        << "ms  (service p99 "
        << rr::TextTable::num(stats.latency_service_p99_ms, 3)
        << "ms, queue p99 "
        << rr::TextTable::num(stats.latency_queue_p99_ms, 3) << "ms)\n";

  if (!args.has("--stats-json")) return 0;
  rr::json::Value config = json_object(
      {{"fabric", args.text("--fabric")},
       {"modules", args.text("--modules")},
       {"alternatives", !args.has("--no-alternatives")},
       {"trace", path},
       {"workers", args.integer("--workers")},
       {"queue_capacity", args.integer("--queue")},
       {"cache", !args.has("--no-cache")},
       {"cache_capacity", args.integer("--cache-cap")},
       {"policy", args.text("--policy")}});
  rr::placer::PlacementOutcome outcome;
  outcome.seconds = seconds;
  Sections sections;
  sections.emplace_back("service",
                        service_json(stats, tenants, service->worker_count(),
                                     seconds, throughput));
  return write_stats(args, in, outcome, "rrplace_cli-service",
                     std::move(config), std::move(sections));
}

rr::service::ServeTrace generate_trace(const Args& args, const Inputs& in) {
  rr::sim::WorkloadParams params;
  params.tenants = args.integer("--tenants");
  params.requests = args.integer("n");
  params.seed = args.seed();
  params.deadline_base_ms = args.real("--deadline-ms");
  rr::sim::WorkloadGenerator generator(params, in.modules, in.fabric->width(),
                                       in.fabric->height());
  return generator.generate();
}

// Write a generated workload in the serve-trace grammar (byte-reproducible
// per seed) instead of replaying it.
int run_gen(const Args& args, const Inputs& in) {
  return write_output(
      args.text("path"),
      rr::sim::WorkloadGenerator::render(generate_trace(args, in), in.modules));
}

// Long-horizon soak: generate an adversarial workload (src/sim), replay it
// through the placement service epoch by epoch, and audit the state at
// every epoch boundary. An audit runs only after every submitted future has
// resolved, so the shed counters are exact (inflight is zero) and the
// workers are quiescent on every tenant — the tenant_quiesced() contract
// that PlacementService::check_invariants() requires. It covers the
// accounting identity and every tenant's state (no leaked tiles, no
// overlap, no module on a faulty tile, no stale solve context); this
// harness adds what only the trace knows:
//
//   - every counter equals the number of submit() calls or of responses
//     observed with the matching status, and none goes backwards;
//   - conservation: live instances == accepted places - removes - fault
//     losses (displaced minus recovered);
//   - optionally (--floor) every tenant completed at least the floor
//     fraction of its submitted requests, checked once at the end.
int run_soak(const Args& args, const Inputs& in) {
  const rr::service::ServeTrace trace = generate_trace(args, in);
  const int tenants = trace.tenants;
  const auto service = start_service(args, in, tenants);
  const auto epoch = static_cast<std::size_t>(args.integer("--epoch"));

  using Status = rr::service::Response::Status;
  std::vector<long> accepted(static_cast<std::size_t>(tenants), 0);
  std::vector<long> removed(static_cast<std::size_t>(tenants), 0);
  std::vector<long> lost(static_cast<std::size_t>(tenants), 0);
  std::vector<long> tenant_submitted(static_cast<std::size_t>(tenants), 0);
  std::vector<long> tenant_completed(static_cast<std::size_t>(tenants), 0);
  std::uint64_t observed_completed = 0, observed_deadline = 0,
                observed_quota = 0, observed_queue = 0, observed_stopped = 0;
  rr::service::ShedCounters previous{};
  long violations = 0;
  long epochs = 0;
  auto violate = [&](const std::string& what) {
    ++violations;
    std::cerr << "soak: INVARIANT VIOLATION (epoch " << epochs << "): " << what
              << '\n';
  };

  rr::Stopwatch watch;
  std::size_t next = 0;
  std::vector<std::pair<std::size_t, std::future<rr::service::Response>>>
      inflight;
  while (next < trace.requests.size()) {
    const std::size_t end = std::min(trace.requests.size(), next + epoch);
    inflight.clear();
    for (; next < end; ++next) {
      const rr::service::Request& request = trace.requests[next];
      ++tenant_submitted[static_cast<std::size_t>(request.tenant)];
      inflight.emplace_back(next, service->submit(request));
    }
    for (auto& [index, future] : inflight) {
      const rr::service::Response response = future.get();
      const auto t = static_cast<std::size_t>(trace.requests[index].tenant);
      switch (response.status) {
        case Status::kPlaced:
          ++accepted[t];
          ++observed_completed;
          ++tenant_completed[t];
          break;
        case Status::kRemoved:
          ++removed[t];
          ++observed_completed;
          ++tenant_completed[t];
          break;
        case Status::kFaulted:
          lost[t] += response.displaced - response.recovered;
          ++observed_completed;
          ++tenant_completed[t];
          break;
        case Status::kRejected:
        case Status::kError:
          ++observed_completed;
          ++tenant_completed[t];
          break;
        case Status::kShedDeadline: ++observed_deadline; break;
        case Status::kShedQuota: ++observed_quota; break;
        case Status::kShedQueue: ++observed_queue; break;
        case Status::kRejectedStopped: ++observed_stopped; break;
      }
    }
    ++epochs;

    // --- Accounting against the trace, then the service's own audit.
    const rr::service::ShedCounters counters = service->shed_counters();
    if (counters.submitted != static_cast<std::uint64_t>(next))
      violate("submitted counter " + std::to_string(counters.submitted) +
              " != " + std::to_string(next) + " submit() calls");
    if (counters.completed != observed_completed ||
        counters.shed_deadline != observed_deadline ||
        counters.shed_quota != observed_quota ||
        counters.shed_queue != observed_queue ||
        counters.rejected_stopped != observed_stopped)
      violate("shed counters disagree with the observed response statuses");
    if (counters.completed < previous.completed ||
        counters.shed_deadline < previous.shed_deadline ||
        counters.shed_quota < previous.shed_quota ||
        counters.shed_queue < previous.shed_queue ||
        counters.rejected_stopped < previous.rejected_stopped ||
        counters.submit_retries < previous.submit_retries)
      violate("a shed counter went backwards");
    previous = counters;
    for (const std::string& violation : service->check_invariants())
      violate(violation);

    // --- Conservation per tenant.
    for (int t = 0; t < tenants; ++t) {
      const auto ti = static_cast<std::size_t>(t);
      const int live = service->tenant_quiesced(t).placer().live_count();
      if (live != accepted[ti] - removed[ti] - lost[ti])
        violate("tenant " + std::to_string(t) + ": conservation broken: " +
                std::to_string(live) + " live != " +
                std::to_string(accepted[ti]) + " accepted - " +
                std::to_string(removed[ti]) + " removed - " +
                std::to_string(lost[ti]) + " lost");
    }
  }
  const double seconds = watch.seconds();
  service->stop();
  const rr::service::ServiceStats stats = service->stats();
  const double throughput =
      seconds > 0.0 ? static_cast<double>(trace.requests.size()) / seconds
                    : 0.0;

  double min_fraction = 1.0;
  long total_live = 0, total_lost = 0;
  for (int t = 0; t < tenants; ++t) {
    const auto ti = static_cast<std::size_t>(t);
    if (tenant_submitted[ti] > 0)
      min_fraction = std::min(
          min_fraction, static_cast<double>(tenant_completed[ti]) /
                            static_cast<double>(tenant_submitted[ti]));
    total_live += accepted[ti] - removed[ti] - lost[ti];
    total_lost += lost[ti];
  }
  const double floor = args.real("--floor");
  if (floor > 0.0 && min_fraction < floor)
    violate("per-tenant completion floor: min fraction " +
            std::to_string(min_fraction) + " < " + std::to_string(floor));

  std::ostream& human = report_stream(args);
  human << "soak: " << trace.requests.size() << " requests, " << tenants
        << " tenants on " << service->worker_count() << " workers, " << epochs
        << " epochs  time: " << rr::TextTable::num(seconds, 3)
        << "s  throughput: " << rr::TextTable::num(throughput, 1)
        << " req/s\n";
  human << "audit: " << violations << " violations  state: " << total_live
        << " live, " << total_lost << " lost to faults, min tenant "
        << "completion " << rr::TextTable::pct(min_fraction) << '\n';
  human << "shed: " << stats.shed.shed_deadline << " deadline, "
        << stats.shed.shed_quota << " quota, " << stats.shed.shed_queue
        << " queue, " << stats.shed.rejected_stopped << " stopped, "
        << stats.shed.submit_retries << " retries ("
        << rr::TextTable::pct(
               stats.shed.submitted > 0
                   ? static_cast<double>(stats.shed.total_shed()) /
                         static_cast<double>(stats.shed.submitted)
                   : 0.0)
        << " of " << stats.shed.submitted << " submitted)\n";
  human << "latency: p50 " << rr::TextTable::num(stats.latency_p50_ms, 3)
        << "ms, p99 " << rr::TextTable::num(stats.latency_p99_ms, 3)
        << "ms, max " << rr::TextTable::num(stats.latency_max_ms, 3)
        << "ms\n";

  if (args.has("--stats-json")) {
    rr::json::Value config =
        json_object({{"fabric", args.text("--fabric")},
                     {"modules", args.text("--modules")},
                     {"requests", args.integer("n")},
                     {"tenants", tenants},
                     {"epoch", args.integer("--epoch")},
                     {"seed", args.seed()},
                     {"quota", args.integer("--quota")},
                     {"deadline_base_ms", args.real("--deadline-ms")},
                     {"retry_budget", args.integer("--retry")},
                     {"defrag_deadline_seconds", args.real("--defrag")}});
    rr::placer::PlacementOutcome outcome;
    outcome.seconds = seconds;
    Sections sections;
    sections.emplace_back("service",
                          service_json(stats, tenants, service->worker_count(),
                                       seconds, throughput));
    sections.emplace_back(
        "soak",
        json_object({{"requests", trace.requests.size()},
                     {"epochs", epochs},
                     {"violations", violations},
                     {"final_live", total_live},
                     {"lost", total_lost},
                     {"min_tenant_completed_fraction", min_fraction}}));
    if (write_stats(args, in, outcome, "rrplace_cli-soak", std::move(config),
                    std::move(sections)) != 0)
      return 2;
  }
  return violations == 0 ? 0 : 1;
}

// ------------------------------------------------------------ flag tables

const std::vector<Command>& commands() {
  const Flag fabric{.name = "--fabric",
                    .kind = Kind::kText,
                    .value = "F.fdf",
                    .help = "fabric description",
                    .required = true};
  const Flag modules{.name = "--modules",
                     .kind = Kind::kText,
                     .value = "M.mlf",
                     .help = "module library",
                     .required = true};
  const Flag no_alternatives{"--no-alternatives", Kind::kSwitch, "",
                             "place base layouts only"};
  const Flag seed{"--seed", Kind::kSeed, "N", "random seed", "1"};
  const Flag quiet{"--quiet", Kind::kSwitch, "",
                   "suppress the floorplan / per-event log"};
  const Flag stats_json{"--stats-json", Kind::kText, "PATH|-",
                        "write the rrplace-stats-v1 JSON document (\"-\": "
                        "stdout; the report moves to stderr)"};
  const Flag faults{"--faults", Kind::kText, "T.fft",
                    "pre-damage the region with a fault trace's final map"};
  const Flag nets{"--nets", Kind::kText, "N.net",
                  "inter-module nets: a weighted-HPWL objective term, the "
                  "commcost policy's ranking, recovery near net partners"};
  const Flag comm_weight{"--comm-weight", Kind::kInt, "W",
                         "weight of the communication term (0 disables it)",
                         "1", 0, kInf, "--nets"};
  const Flag bus_period{"--bus-period", Kind::kInt, "P",
                        "overlay horizontal bus lanes every P rows", "", 1};
  const Flag bus_offset{"--bus-offset", Kind::kInt, "R", "first bus lane row",
                        "0", 0, kInf, "--bus-period"};
  const Flag bus_attach{"--bus-attach", Kind::kInt, "ROW",
                        "turn logic in this shape row into bus-macro demand "
                        "(a row outside a shape is a model error)",
                        "", 0, kInf, "--bus-period"};
  // solve and faults: the offline solver.
  const Flag time_limit{"--time-limit", Kind::kReal, "S",
                        "solver budget in seconds", "5", 0};
  const Flag mode{"--mode", Kind::kChoice, kModeChoices, "search mode",
                  "auto"};
  const Flag solver_workers{"--workers", Kind::kInt, "N", "portfolio width",
                            "1", 1, kMaxThreads};
  const Flag svg{"--svg", Kind::kText, "PATH", "also write an SVG floorplan"};
  const Flag fault_trace{"trace.fft", Kind::kText, "",
                         "fault trace, applied event by event"};
  const Flag recovery_deadline{"--deadline", Kind::kReal, "S",
                               "per-event recovery deadline (0: unlimited)",
                               "0.1", 0};
  // online, serve and soak: the online placer.
  const Flag policy{"--policy", Kind::kChoice, kPolicyChoices,
                    "anchor-selection policy (commcost requires --nets)",
                    "firstfit"};
  const Flag defrag{"--defrag", Kind::kReal, "S",
                    "per-request defragmentation deadline (0: off)", "0", 0};
  const Flag online_trace{"trace", Kind::kText, "",
                          "lines \"place <id> <module>\", \"remove <id>\""};
  // serve and soak: the placement service.
  const Flag serve_trace{"trace", Kind::kText, "",
                         "serve-trace grammar (service/trace.hpp)"};
  const Flag service_workers{"--workers", Kind::kInt, "N",
                             "service worker pool width", "4", 1, kMaxThreads};
  const Flag queue{"--queue", Kind::kInt, "N", "per-worker queue capacity",
                   "256", 1};
  // Stays until every tenant holds a solve context of its own.
  const Flag no_cache{"--no-cache", Kind::kSwitch, "",
                      "disable the shared solve-context cache"};
  const Flag cache_cap{
      "--cache-cap", Kind::kInt, "N",
      "solve-context cache LRU capacity (0: unbounded)",
      std::to_string(rr::service::SolveContextCache::kDefaultCapacity), 0};
  // soak and gen: the workload generator.
  const Flag requests{"n", Kind::kInt, "", "requests to generate", "", 1};
  const Flag tenants{"--tenants", Kind::kInt, "N",
                     "tenants in the generated workload", "4", 1};
  const Flag deadline_ms{"--deadline-ms", Kind::kReal, "X",
                         "deadline base of generated places: priority class k "
                         "gets X * 4^k ms (0: none)",
                         "0", 0};
  const Flag epoch{"--epoch", Kind::kInt, "N", "requests per audited epoch",
                   "2000", 1};
  const Flag quota{"--quota", Kind::kInt, "N",
                   "per-tenant inflight quota (0: unlimited)", "0", 0};
  const Flag retry{"--retry", Kind::kInt, "N",
                   "submit retry budget on a full queue (-1: block)", "-1",
                   -1};
  const Flag floor{"--floor", Kind::kReal, "F",
                   "minimum per-tenant completed fraction (0: off)", "0", 0,
                   1};
  const Flag output{"path", Kind::kText, "", "output file (\"-\": stdout)"};
  const Flag module{"module", Kind::kText, "", "module name"};

  static const std::vector<Command> table = {
      {"solve",
       "place the module library offline with the CP solver",
       {fabric, modules, no_alternatives, time_limit, mode, solver_workers,
        seed, svg, stats_json, faults, nets, comm_weight, bus_period,
        bus_offset, bus_attach, quiet},
       run_solve},
      {"anchors",
       "print the valid-anchor mask of a module's base shape",
       {module, fabric, modules, faults, bus_period, bus_offset, bus_attach},
       run_anchors},
      {"online",
       "replay a place/remove trace through the online placer",
       {online_trace, fabric, modules, no_alternatives, policy, defrag, seed,
        stats_json, faults, nets, comm_weight, bus_period, bus_offset,
        bus_attach, quiet},
       run_online},
      {"faults",
       "place offline, then recover through a fault trace",
       {fault_trace, fabric, modules, no_alternatives, time_limit, mode,
        solver_workers, seed, recovery_deadline, stats_json, faults, nets,
        comm_weight, bus_period, bus_offset, bus_attach, quiet},
       run_faults},
      {"serve",
       "replay a multi-tenant trace through the placement service",
       {serve_trace, fabric, modules, no_alternatives, policy,
        service_workers, queue, no_cache, cache_cap, stats_json, nets,
        comm_weight, bus_period, bus_offset, bus_attach, quiet},
       run_serve},
      {"soak",
       "replay a generated workload, auditing invariants per epoch",
       {requests, fabric, modules, no_alternatives, policy, defrag, seed,
        service_workers, queue, no_cache, cache_cap, tenants, epoch, quota,
        deadline_ms, retry, floor, stats_json, nets, comm_weight, bus_period,
        bus_offset, bus_attach},
       run_soak},
      {"gen",
       "write the generated workload as a serve trace",
       {requests, output, fabric, modules, seed, tenants, deadline_ms},
       run_gen},
  };
  return table;
}

void print_commands(std::ostream& out) {
  out << "usage: rrplace_cli <command> [arguments] --fabric F.fdf "
         "--modules M.mlf [options]\ncommands:\n";
  for (const Command& command : commands())
    out << "  " << std::left << std::setw(8) << command.name << ' '
        << command.summary << '\n';
  out << "'rrplace_cli <command> --help' lists a command's options\n";
}

void print_help(const Command& command) {
  std::cout << "usage: rrplace_cli " << command.name;
  for (const Flag& row : command.flags) {
    if (row.positional()) std::cout << ' ' << row.display();
    else if (row.required) std::cout << ' ' << row.name << ' ' << row.value;
  }
  std::cout << " [options]\n" << command.summary << '\n';
  for (const Flag& row : command.flags) {
    std::string head = row.display();
    if (!row.value.empty()) head.append(" ").append(row.value);
    std::cout << "  " << std::left << std::setw(22) << head << ' ' << row.help;
    if (!row.fallback.empty()) std::cout << " (default " << row.fallback << ')';
    if (row.max < kInf) std::cout << " [" << row.min << ".." << row.max << ']';
    else if (row.min > -kInf) std::cout << " [>= " << row.min << ']';
    if (!row.needs.empty()) std::cout << "; requires " << row.needs;
    std::cout << '\n';
  }
}

// A malformed command line: one line naming the command and the problem
// (the streamed `parts`), exit status 2.
template <typename... Parts>
[[noreturn]] void usage_error(const Command* command, const Parts&... parts) {
  std::cerr << "error: ";
  if (command != nullptr) std::cerr << command->name << ": ";
  (std::cerr << ... << parts) << '\n';
  if (command == nullptr) {
    print_commands(std::cerr);
  } else {
    std::cerr << "'rrplace_cli " << command->name
              << " --help' lists its options\n";
  }
  std::exit(2);
}

// Numbers must parse whole, reals must be finite, and both must lie within
// the row's bounds; a choice must be one of the row's alternatives.
void check_value(const Command& command, const Flag& row,
                 std::string_view text) {
  double value = 0;
  switch (row.kind) {
    case Kind::kSwitch:
    case Kind::kText:
      return;
    case Kind::kChoice:
      if (choice_index(row, text) >= 0) return;
      usage_error(&command, row.display(), ": expected one of ", row.value,
                  ", got '", text, "'");
    case Kind::kSeed:
      if (!parse_number<std::uint64_t>(text))
        usage_error(&command, row.display(), ": invalid number '", text, "'");
      return;
    case Kind::kInt: {
      const auto parsed = parse_number<int>(text);
      if (!parsed)
        usage_error(&command, row.display(), ": invalid number '", text, "'");
      value = *parsed;
      break;
    }
    case Kind::kReal: {
      const auto parsed = parse_number<double>(text);
      if (!parsed || !std::isfinite(*parsed))
        usage_error(&command, row.display(), ": invalid number '", text, "'");
      value = *parsed;
      break;
    }
  }
  if (value < row.min)
    usage_error(&command, row.display(), ": value ", text,
                " is below the minimum ", row.min);
  if (value > row.max)
    usage_error(&command, row.display(), ": value ", text,
                " is above the maximum ", row.max);
}

Args parse_args(int argc, char** argv) {
  if (argc < 2) usage_error(nullptr, "missing command");
  const std::string_view name = argv[1];
  if (name == "--help" || name == "-h") {
    print_commands(std::cout);
    std::exit(0);
  }
  const Command* command = nullptr;
  for (const Command& candidate : commands())
    if (candidate.name == name) command = &candidate;
  if (command == nullptr)
    usage_error(nullptr, "unknown command '", name, "'");

  Args args(*command);
  auto positional = command->flags.begin();
  for (int i = 2; i < argc; ++i) {
    const std::string_view token = argv[i];
    if (token == "--help" || token == "-h") {
      print_help(*command);
      std::exit(0);
    }
    const Flag* row = nullptr;
    std::string_view value;
    if (token.starts_with("--")) {
      row = command->find(token);
      if (row == nullptr)
        usage_error(command, "unknown option '", token, "'");
      if (row->kind != Kind::kSwitch) {
        if (i + 1 >= argc)
          usage_error(command, token, " needs a value");
        value = argv[++i];
      }
    } else {
      while (positional != command->flags.end() && !positional->positional())
        ++positional;
      if (positional == command->flags.end())
        usage_error(command, "unexpected argument '", token, "'");
      row = &*positional++;
      value = token;
    }
    check_value(*command, *row, value);
    args.set(row->name, value);
  }

  for (const Flag& row : command->flags) {
    const bool given = args.has(row.name);
    if (!given && (row.required || row.positional()))
      usage_error(command, "missing ", row.display());
    if (given && !row.needs.empty() && !args.has(row.needs))
      usage_error(command, row.name, " requires ", row.needs);
  }
  // The commcost policy ranks anchors by the nets: without them it has
  // nothing to rank by.
  if (command->find("--policy") != nullptr &&
      args.text("--policy") == "commcost" && !args.has("--nets"))
    usage_error(command, "--policy commcost requires --nets");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    const Inputs inputs = load_inputs(args);
    // Collection must be on before a Placer builds its Spaces (each Space
    // snapshots the flag) and before the service spawns its workers, so the
    // stats document's metrics section is complete.
    if (args.has("--stats-json")) rr::metrics::set_enabled(true);
    return args.command.run(args, inputs);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 2;
  }
}
