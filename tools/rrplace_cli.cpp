// rrplace command-line tool — the "interactive tool" use the paper's
// conclusion targets: place a module library on a fabric description and
// print/emit the floorplan.
//
//   rrplace_cli --fabric F.fdf --modules M.mlf [options]
//
// Options:
//   --no-alternatives         place base layouts only
//   --time-limit <seconds>    solver budget (default 5)
//   --mode bnb|lns|auto|restarts
//                             search mode (default auto)
//   --workers <n>             portfolio width (default 1)
//   --seed <n>                random seed (default 1)
//   --svg <path>              also write an SVG floorplan
//   --stats-json <path>       write solver statistics (rrplace-stats-v1
//                             JSON: per-propagator-kind counters, search
//                             stats, placer metrics); "-" for stdout
//   --anchors <module>        print the valid-anchor mask of a module's
//                             base shape instead of solving (Fig. 4b view)
//   --online-trace <path>     replay an online place/remove trace through
//                             the OnlinePlacer instead of solving offline;
//                             lines: "place <id> <module>", "remove <id>",
//                             "#" comments
//   --defrag <seconds>        per-request defragmentation deadline for
//                             --online-trace or --soak (0 = off, plain
//                             first-fit)
//   --online-policy <p>       anchor-selection policy for the online placer
//                             (firstfit | bestfit | bottomleft | commcost;
//                             default firstfit); applies to --online-trace
//                             and --serve-trace; commcost requires --nets
//   --faults <path>           apply a fault trace's (.fft) resulting fault
//                             map to the region before solving or replaying:
//                             every placer refuses the faulty tiles
//   --fault-trace <path>      availability replay: place the modules
//                             offline, admit them into the fault-recovery
//                             manager, then feed the .fft events through
//                             tiered recovery (swap / re-place / defrag)
//   --fault-deadline <s>      per-event recovery deadline for --fault-trace
//                             (default 0.1; 0 = unlimited)
//   --serve-trace <path>      replay a multi-tenant request trace through
//                             the in-process placement service (every
//                             tenant gets its own copy of the fabric);
//                             lines: "tenants <n>",
//                             "place <tenant> <id> <module>",
//                             "remove <tenant> <id>",
//                             "fault <tenant> tile <x> <y> [kind]" (also
//                             column/rect in the .fft grammar),
//                             "repair <tenant> <x> <y>",
//                             "repair-transient <tenant>", "#" comments
//   --serve-workers <n>       service worker pool width (default 4);
//                             also applies to --soak
//   --serve-queue <n>         per-worker queue capacity (default 256);
//                             also applies to --soak
//   --soak <n>                soak mode: generate an adversarial workload of
//                             n requests (src/sim: MMPP bursts, heavy-tailed
//                             sizes/lifetimes, fault storms), replay it
//                             through the placement service, and audit
//                             end-state invariants at every epoch boundary
//                             (accounting identity, no leaked tiles,
//                             instance conservation, no placements on faulty
//                             tiles); any violation exits nonzero
//   --soak-tenants <n>        tenants in the generated workload (default 4)
//   --soak-epoch <n>          requests per epoch between invariant audits
//                             (default 2000)
//   --soak-quota <n>          per-tenant inflight quota; submits over it are
//                             shed with kShedQuota (0 = unlimited)
//   --soak-deadline-ms <x>    priority-class deadline base for generated
//                             place requests; class k gets base * 4^k ms and
//                             requests whose queue wait consumes the budget
//                             are shed (0 = no deadlines)
//   --soak-retry <n>          submit retry budget on a full shard queue
//                             (negative = block forever; default -1)
//   --soak-floor <f>          minimum per-tenant completed fraction audited
//                             at the end of the horizon (0 = off)
//   --gen-trace <path>        with --soak: write the generated trace text
//                             (serve-trace grammar) and exit without
//                             replaying; "-" for stdout
//   --no-serve-cache          disable the shared solve-context cache
//                             (every request pays the full anchor scan)
//   --serve-cache-cap <n>     solve-context cache LRU capacity (default
//                             32; 0 = unbounded)
//   --nets <path>             inter-module communication nets (.net): the
//                             offline placer adds a weighted-HPWL term to
//                             its objective, the online commcost policy
//                             ranks anchors by it, and fault recovery
//                             prefers spots near net partners
//   --comm-weight <w>         weight of the communication term relative to
//                             the area objective (default 1; 0 disables the
//                             term — the zero-weight oracle); requires
//                             --nets
//   --bus-period <p>          overlay horizontal bus lanes every p rows on
//                             the loaded fabric (comm/bus model)
//   --bus-offset <r>          first bus lane row (default 0); requires
//                             --bus-period
//   --bus-attach <row>        rewrite every module so logic in this shape
//                             row becomes bus-macro demand (modules then
//                             anchor on lanes); requires --bus-period; a
//                             row outside any shape is a model error
//   --quiet                   suppress the ASCII floorplan / trace log
//
// The trace modes are mutually exclusive, and flags that only make sense
// for one mode are rejected with the others (see check_conflicts).
#include <charconv>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>

#include "rrplace.hpp"
#include "util/strings.hpp"

namespace {

struct CliOptions {
  std::string fabric_path;
  std::string modules_path;
  bool alternatives = true;
  double time_limit = 5.0;
  rr::placer::PlacerMode mode = rr::placer::PlacerMode::kAuto;
  int workers = 1;
  std::uint64_t seed = 1;
  std::string svg_path;
  std::string stats_json_path;
  std::string anchors_module;
  std::string online_trace_path;
  double defrag_seconds = 0.0;
  rr::AnchorPolicy online_policy = rr::AnchorPolicy::kFirstFit;
  std::string faults_path;
  std::string fault_trace_path;
  double fault_deadline = 0.1;
  std::string serve_trace_path;
  int serve_workers = 4;
  std::size_t serve_queue = 256;
  bool serve_cache = true;
  std::size_t serve_cache_cap = rr::service::SolveContextCache::kDefaultCapacity;
  long soak_requests = 0;  // > 0 selects soak mode
  int soak_tenants = 4;
  long soak_epoch = 2000;
  int soak_quota = 0;
  double soak_deadline_ms = 0.0;
  int soak_retry = -1;
  double soak_floor = 0.0;
  std::string gen_trace_path;
  std::string nets_path;
  long comm_weight = 1;
  int bus_period = 0;
  int bus_offset = 0;
  int bus_attach = 0;
  bool quiet = false;
  // Which flags appeared explicitly — conflict checks must catch an
  // explicit "--mode restarts" with --serve-trace even though kAuto is
  // also the default, so defaults alone can't tell.
  bool mode_set = false;
  bool defrag_set = false;
  bool serve_tuning_set = false;
  bool soak_tuning_set = false;
  bool online_policy_set = false;
  bool comm_weight_set = false;
  bool bus_offset_set = false;
  bool bus_attach_set = false;
};

[[noreturn]] void usage(const char* error = nullptr) {
  if (error != nullptr) std::cerr << "error: " << error << "\n\n";
  std::cerr <<
      "usage: rrplace_cli --fabric F.fdf --modules M.mlf [options]\n"
      "  --no-alternatives, --time-limit S, --mode bnb|lns|auto|restarts,\n"
      "  --workers N, --seed N, --svg PATH,\n"
      "  --stats-json PATH|-, --anchors MODULE,\n"
      "  --online-trace PATH, --defrag S,\n"
      "  --online-policy firstfit|bestfit|bottomleft|commcost,\n"
      "  --faults PATH, --fault-trace PATH, --fault-deadline S,\n"
      "  --serve-trace PATH, --serve-workers N, --serve-queue N,\n"
      "  --no-serve-cache, --serve-cache-cap N,\n"
      "  --soak N, --soak-tenants N, --soak-epoch N, --soak-quota N,\n"
      "  --soak-deadline-ms X, --soak-retry N, --soak-floor F,\n"
      "  --gen-trace PATH,\n"
      "  --nets PATH, --comm-weight W,\n"
      "  --bus-period P, --bus-offset R, --bus-attach ROW, --quiet\n";
  std::exit(error == nullptr ? 0 : 2);
}

const char* policy_name(rr::AnchorPolicy policy) {
  switch (policy) {
    case rr::AnchorPolicy::kFirstFit: return "firstfit";
    case rr::AnchorPolicy::kBestFit: return "bestfit";
    case rr::AnchorPolicy::kBottomLeft: return "bottomleft";
    case rr::AnchorPolicy::kCommCost: return "commcost";
  }
  return "firstfit";
}

// Conflicting-flag rejection: one line on stderr, nonzero exit, no usage
// dump — the combination is well-formed syntax, just meaningless, and the
// caller (likely a script) wants the reason, not the flag list.
[[noreturn]] void conflict(const std::string& what) {
  std::cerr << "error: conflicting options: " << what << '\n';
  std::exit(2);
}

// The three trace modes are mutually exclusive with each other and with
// --anchors, and mode-specific tuning flags are rejected outside their
// mode instead of being silently ignored.
void check_conflicts(const CliOptions& options) {
  const bool online = !options.online_trace_path.empty();
  const bool fault = !options.fault_trace_path.empty();
  const bool serve = !options.serve_trace_path.empty();
  const bool soak = options.soak_requests > 0;
  const bool anchors = !options.anchors_module.empty();
  if (online && fault) conflict("--online-trace with --fault-trace");
  if (serve && online) conflict("--serve-trace with --online-trace");
  if (serve && fault) conflict("--serve-trace with --fault-trace");
  if (soak && (online || fault || serve))
    conflict("--soak with another trace replay mode");
  if (anchors && (online || fault || serve || soak))
    conflict("--anchors with a trace replay mode");
  // The service runs the online first-fit placer per tenant; the offline
  // search mode can't apply, so an explicit --mode is a confused command
  // line even when it names the default.
  if ((serve || soak) && options.mode_set)
    conflict("--serve-trace/--soak with --mode");
  // Tenants own private fabrics built from the pristine description;
  // pre-damage via --faults would be silently dropped.
  if ((serve || soak) && !options.faults_path.empty())
    conflict("--serve-trace/--soak with --faults (pre-damage is per-tenant: "
             "use fault events in the trace)");
  if (options.defrag_set && !online && !soak)
    conflict("--defrag without --online-trace or --soak");
  // The policy steers the OnlinePlacer, which only runs inside the trace
  // modes that host it.
  if (options.online_policy_set && !online && !serve && !soak)
    conflict("--online-policy without a trace replay mode");
  if (options.serve_tuning_set && !serve && !soak)
    conflict("--serve-workers/--serve-queue/--no-serve-cache/"
             "--serve-cache-cap without --serve-trace or --soak");
  if (options.soak_tuning_set && !soak)
    conflict("--soak-* or --gen-trace without --soak");
  // The communication term needs nets to price; a bare weight (or a
  // commcost policy with nothing to rank by) is a confused command line.
  if (options.comm_weight_set && options.nets_path.empty())
    conflict("--comm-weight without --nets");
  if (options.online_policy == rr::AnchorPolicy::kCommCost &&
      options.nets_path.empty())
    conflict("--online-policy commcost without --nets");
  // The bus overlay flags modify the lanes --bus-period creates; without a
  // period there are no lanes to offset or attach to.
  if (options.bus_offset_set && options.bus_period <= 0)
    conflict("--bus-offset without --bus-period");
  if (options.bus_attach_set && options.bus_period <= 0)
    conflict("--bus-attach without --bus-period");
}

// Checked numeric parsing: the whole token must parse and satisfy the
// bound, otherwise the program exits through usage() instead of silently
// running with a garbage (atoi/atof would yield 0) value.
template <typename T>
T parse_number(const char* text, const char* what, T min_value) {
  T value{};
  const char* const end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end)
    usage((std::string(what) + ": invalid number '" + text + "'").c_str());
  if (value < min_value)
    usage((std::string(what) + ": value " + text + " is below the minimum")
              .c_str());
  return value;
}

CliOptions parse_args(int argc, char** argv) {
  CliOptions options;
  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage("missing argument value");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--fabric") options.fabric_path = need_value(i);
    else if (arg == "--modules") options.modules_path = need_value(i);
    else if (arg == "--no-alternatives") options.alternatives = false;
    else if (arg == "--time-limit")
      options.time_limit =
          parse_number<double>(need_value(i), "--time-limit", 0.0);
    else if (arg == "--workers")
      options.workers = parse_number<int>(need_value(i), "--workers", 1);
    else if (arg == "--seed")
      options.seed = parse_number<std::uint64_t>(need_value(i), "--seed", 0);
    else if (arg == "--svg") options.svg_path = need_value(i);
    else if (arg == "--stats-json") options.stats_json_path = need_value(i);
    else if (arg == "--anchors") options.anchors_module = need_value(i);
    else if (arg == "--online-trace") options.online_trace_path = need_value(i);
    else if (arg == "--defrag") {
      options.defrag_seconds =
          parse_number<double>(need_value(i), "--defrag", 0.0);
      options.defrag_set = true;
    }
    else if (arg == "--faults") options.faults_path = need_value(i);
    else if (arg == "--fault-trace") options.fault_trace_path = need_value(i);
    else if (arg == "--fault-deadline")
      options.fault_deadline =
          parse_number<double>(need_value(i), "--fault-deadline", 0.0);
    else if (arg == "--serve-trace") options.serve_trace_path = need_value(i);
    else if (arg == "--serve-workers") {
      options.serve_workers =
          parse_number<int>(need_value(i), "--serve-workers", 1);
      options.serve_tuning_set = true;
    }
    else if (arg == "--serve-queue") {
      options.serve_queue = parse_number<std::size_t>(
          need_value(i), "--serve-queue", std::size_t{1});
      options.serve_tuning_set = true;
    }
    else if (arg == "--no-serve-cache") {
      options.serve_cache = false;
      options.serve_tuning_set = true;
    }
    else if (arg == "--serve-cache-cap") {
      options.serve_cache_cap = parse_number<std::size_t>(
          need_value(i), "--serve-cache-cap", std::size_t{0});
      options.serve_tuning_set = true;
    }
    else if (arg == "--soak")
      options.soak_requests = parse_number<long>(need_value(i), "--soak", 1L);
    else if (arg == "--soak-tenants") {
      options.soak_tenants =
          parse_number<int>(need_value(i), "--soak-tenants", 1);
      options.soak_tuning_set = true;
    }
    else if (arg == "--soak-epoch") {
      options.soak_epoch = parse_number<long>(need_value(i), "--soak-epoch", 1L);
      options.soak_tuning_set = true;
    }
    else if (arg == "--soak-quota") {
      options.soak_quota = parse_number<int>(need_value(i), "--soak-quota", 0);
      options.soak_tuning_set = true;
    }
    else if (arg == "--soak-deadline-ms") {
      options.soak_deadline_ms =
          parse_number<double>(need_value(i), "--soak-deadline-ms", 0.0);
      options.soak_tuning_set = true;
    }
    else if (arg == "--soak-retry") {
      options.soak_retry =
          parse_number<int>(need_value(i), "--soak-retry", -1);
      options.soak_tuning_set = true;
    }
    else if (arg == "--soak-floor") {
      options.soak_floor =
          parse_number<double>(need_value(i), "--soak-floor", 0.0);
      options.soak_tuning_set = true;
    }
    else if (arg == "--gen-trace") {
      options.gen_trace_path = need_value(i);
      options.soak_tuning_set = true;
    }
    else if (arg == "--online-policy") {
      options.online_policy_set = true;
      const std::string policy = need_value(i);
      if (policy == "firstfit") options.online_policy = rr::AnchorPolicy::kFirstFit;
      else if (policy == "bestfit") options.online_policy = rr::AnchorPolicy::kBestFit;
      else if (policy == "bottomleft")
        options.online_policy = rr::AnchorPolicy::kBottomLeft;
      else if (policy == "commcost")
        options.online_policy = rr::AnchorPolicy::kCommCost;
      else usage("unknown online policy");
    }
    else if (arg == "--nets") options.nets_path = need_value(i);
    else if (arg == "--comm-weight") {
      options.comm_weight =
          parse_number<long>(need_value(i), "--comm-weight", 0L);
      options.comm_weight_set = true;
    }
    else if (arg == "--bus-period")
      options.bus_period = parse_number<int>(need_value(i), "--bus-period", 1);
    else if (arg == "--bus-offset") {
      options.bus_offset = parse_number<int>(need_value(i), "--bus-offset", 0);
      options.bus_offset_set = true;
    }
    else if (arg == "--bus-attach") {
      options.bus_attach = parse_number<int>(need_value(i), "--bus-attach", 0);
      options.bus_attach_set = true;
    }
    else if (arg == "--quiet") options.quiet = true;
    else if (arg == "--mode") {
      options.mode_set = true;
      const std::string mode = need_value(i);
      if (mode == "bnb") options.mode = rr::placer::PlacerMode::kBranchAndBound;
      else if (mode == "lns") options.mode = rr::placer::PlacerMode::kLns;
      else if (mode == "auto") options.mode = rr::placer::PlacerMode::kAuto;
      else if (mode == "restarts")
        options.mode = rr::placer::PlacerMode::kRestarts;
      else usage("unknown mode");
    } else if (arg == "--help" || arg == "-h") usage();
    else usage(("unknown option: " + arg).c_str());
  }
  if (options.fabric_path.empty() || options.modules_path.empty())
    usage("--fabric and --modules are required");
  check_conflicts(options);
  return options;
}

// The optional "comm" stats section: net count, active weight, and the
// total doubled-HPWL of the final placement (0 when nothing is placed).
rr::json::Value comm_stats_json(const rr::comm::NetList& nets, long weight,
                                long wirelength2) {
  rr::json::Value doc = rr::json::Value::object();
  doc.set("nets", rr::json::Value(static_cast<std::uint64_t>(nets.nets.size())));
  doc.set("weight", rr::json::Value(weight));
  doc.set("wirelength2", rr::json::Value(wirelength2));
  return doc;
}

// Replay an online place/remove trace through the OnlinePlacer and report
// the service level (acceptance ratio) plus defragmentation telemetry.
int run_online_trace(const CliOptions& cli,
                     const rr::fpga::PartialRegion& region,
                     const std::vector<rr::model::Module>& modules,
                     const std::shared_ptr<const rr::comm::NetList>& nets) {
  std::ifstream in(cli.online_trace_path);
  if (!in) {
    std::cerr << "error: cannot read trace " << cli.online_trace_path << '\n';
    return 2;
  }
  auto find_module = [&](const std::string& name) -> const rr::model::Module* {
    for (const auto& m : modules)
      if (m.name() == name) return &m;
    return nullptr;
  };
  rr::baseline::OnlineOptions online;
  online.use_alternatives = cli.alternatives;
  online.policy = cli.online_policy;
  online.defrag.deadline_seconds = cli.defrag_seconds;
  online.defrag.seed = cli.seed;
  online.nets = nets;
  online.comm_weight = cli.comm_weight;
  rr::baseline::OnlinePlacer placer(region, online);
  // Names of the live instances (defrag may relocate them, so positions
  // come from live_placements() at the end, not from this map).
  std::unordered_map<int, const rr::model::Module*> live_modules;

  std::ostream& human = cli.stats_json_path == "-" ? std::cerr : std::cout;
  rr::Stopwatch watch;
  long places = 0, removes = 0, accepted = 0;
  // Errors throw InvalidInput("<path>:<line>: <what>") to main's catch
  // (exit 2), like the library formats.
  rr::LineLexer line(in, cli.online_trace_path);
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
      if (!cli.quiet) {
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
      if (!cli.quiet) human << "  remove " << id << '\n';
    } else {
      line.fail("unknown trace op '" + std::string(line[0]) + "'");
    }
  }
  const double seconds = watch.seconds();
  const long rejected = places - accepted;
  const auto& defrag = placer.defrag_stats();
  const auto& relocation = placer.relocation_cost();

  human << "trace: " << (places + removes) << " events (" << places
        << " place, " << removes << " remove)  accepted: " << accepted << '/'
        << places << " ("
        << rr::TextTable::pct(places > 0
                                  ? static_cast<double>(accepted) / places
                                  : 1.0)
        << ")\n";
  human << "defrag: deadline " << cli.defrag_seconds << "s, "
        << defrag.attempts << " passes, " << defrag.successes
        << " admitted (" << defrag.exact_successes << " exact, "
        << defrag.greedy_successes << " greedy), " << defrag.relocated_modules
        << " modules / " << defrag.relocated_tiles << " tiles relocated\n";
  // Final live wirelength under the loaded nets (names from the replay
  // map, positions from the placer: defrag may have relocated instances).
  long final_wirelength2 = 0;
  if (nets != nullptr) {
    std::vector<rr::comm::NamedPin> pins;
    pins.reserve(live_modules.size());
    for (const auto& p : placer.live_placements()) {
      const rr::model::Module* module = live_modules.at(p.module);
      const rr::Rect box =
          module->shapes()[static_cast<std::size_t>(p.shape)].bounding_box();
      pins.push_back(rr::comm::NamedPin{module->name(),
                                        rr::comm::center2(box, p.x, p.y)});
    }
    final_wirelength2 = rr::comm::pins_wirelength2(*nets, pins);
    human << "comm: " << nets->nets.size() << " nets, weight "
          << cli.comm_weight << ", final wirelength2 " << final_wirelength2
          << '\n';
  }
  human << "final: " << placer.live_count() << " live, occupancy "
        << rr::TextTable::pct(placer.occupancy()) << "  time: "
        << rr::TextTable::num(seconds, 3) << "s\n";

  if (!cli.stats_json_path.empty()) {
    rr::json::Value config = rr::json::Value::object();
    config.set("fabric", rr::json::Value(cli.fabric_path));
    config.set("modules", rr::json::Value(cli.modules_path));
    config.set("alternatives", rr::json::Value(cli.alternatives));
    config.set("trace", rr::json::Value(cli.online_trace_path));
    config.set("defrag_deadline_seconds",
               rr::json::Value(cli.defrag_seconds));
    config.set("seed", rr::json::Value(cli.seed));
    config.set("policy", rr::json::Value(policy_name(cli.online_policy)));
    if (!cli.nets_path.empty())
      config.set("nets", rr::json::Value(cli.nets_path));
    // The search/space/result sections describe one offline solve; a trace
    // replay has none, so a default (empty) outcome keeps the schema
    // intact and the replay data lives in the "online" section.
    rr::placer::PlacementOutcome outcome;
    outcome.seconds = seconds;
    rr::json::Value stats = rr::placer::solve_stats_json(
        region, modules, outcome, "rrplace_cli-online", std::move(config));
    rr::json::Value online_doc = rr::json::Value::object();
    online_doc.set("places", rr::json::Value(places));
    online_doc.set("removes", rr::json::Value(removes));
    online_doc.set("accepted", rr::json::Value(accepted));
    online_doc.set("rejected", rr::json::Value(rejected));
    online_doc.set(
        "acceptance_ratio",
        rr::json::Value(places > 0 ? static_cast<double>(accepted) / places
                                   : 1.0));
    rr::json::Value defrag_doc = rr::json::Value::object();
    defrag_doc.set("attempts", rr::json::Value(defrag.attempts));
    defrag_doc.set("successes", rr::json::Value(defrag.successes));
    defrag_doc.set("exact_successes", rr::json::Value(defrag.exact_successes));
    defrag_doc.set("greedy_successes",
                   rr::json::Value(defrag.greedy_successes));
    defrag_doc.set("relocated_modules",
                   rr::json::Value(defrag.relocated_modules));
    defrag_doc.set("relocated_tiles", rr::json::Value(defrag.relocated_tiles));
    defrag_doc.set("deadline_expiries",
                   rr::json::Value(defrag.deadline_expiries));
    defrag_doc.set("rejects", rr::json::Value(defrag.rejects));
    defrag_doc.set("retry_skips", rr::json::Value(defrag.retry_skips));
    defrag_doc.set("budget_skips", rr::json::Value(defrag.budget_skips));
    online_doc.set("defrag", std::move(defrag_doc));
    rr::json::Value relocation_doc = rr::json::Value::object();
    relocation_doc.set("tiles_cleared",
                       rr::json::Value(relocation.tiles_cleared));
    relocation_doc.set("tiles_written",
                       rr::json::Value(relocation.tiles_written));
    relocation_doc.set("modules_moved",
                       rr::json::Value(relocation.modules_loaded));
    online_doc.set("relocation", std::move(relocation_doc));
    online_doc.set("final_live", rr::json::Value(placer.live_count()));
    online_doc.set("final_occupancy", rr::json::Value(placer.occupancy()));
    stats.set("online", std::move(online_doc));
    if (nets != nullptr)
      stats.set("comm", comm_stats_json(*nets, cli.comm_weight,
                                        final_wirelength2));
    if (cli.stats_json_path == "-") {
      std::cout << stats.dump(2) << '\n';
    } else {
      std::ofstream out(cli.stats_json_path);
      if (!out) {
        std::cerr << "error: cannot write " << cli.stats_json_path << '\n';
        return 2;
      }
      out << stats.dump(2) << '\n';
    }
  }
  return 0;
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
int run_fault_trace(const CliOptions& cli,
                    const rr::fpga::PartialRegion& region,
                    const std::vector<rr::model::Module>& modules,
                    const std::shared_ptr<const rr::comm::NetList>& nets) {
  const rr::fpga::FaultTrace trace =
      rr::fpga::load_fault_trace(cli.fault_trace_path);
  if (trace.width != region.fabric().width() ||
      trace.height != region.fabric().height()) {
    std::cerr << "error: fault trace is " << trace.width << 'x' << trace.height
              << " but the fabric is " << region.fabric().width() << 'x'
              << region.fabric().height() << '\n';
    return 2;
  }

  rr::placer::PlacerOptions options;
  options.use_alternatives = cli.alternatives;
  options.time_limit_seconds = cli.time_limit;
  options.mode = cli.mode;
  options.workers = cli.workers;
  options.seed = cli.seed;
  options.nets = nets.get();
  options.comm_weight = cli.comm_weight;
  rr::placer::Placer placer(region, modules, options);
  const auto outcome = placer.place();
  std::ostream& human = cli.stats_json_path == "-" ? std::cerr : std::cout;
  if (!outcome.solution.feasible) {
    human << "infeasible: no initial placement to recover\n";
    return 1;
  }

  rr::runtime::FaultRecoveryOptions recovery_options;
  recovery_options.deadline_seconds = cli.fault_deadline;
  recovery_options.use_alternatives = cli.alternatives;
  recovery_options.seed = cli.seed;
  recovery_options.nets = nets;
  recovery_options.comm_weight = cli.comm_weight;
  rr::runtime::FaultRecoveryManager manager(region, recovery_options);
  for (const auto& p : outcome.solution.placements)
    manager.admit(p.module, modules[static_cast<std::size_t>(p.module)],
                  p.shape, p.x, p.y);
  const int admitted = manager.live_count();

  rr::Stopwatch watch;
  for (const rr::fpga::FaultEvent& event : trace.events) {
    const auto result = manager.on_fault(event);
    if (cli.quiet) continue;
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

  if (!cli.stats_json_path.empty()) {
    rr::json::Value config = rr::json::Value::object();
    config.set("fabric", rr::json::Value(cli.fabric_path));
    config.set("modules", rr::json::Value(cli.modules_path));
    config.set("alternatives", rr::json::Value(cli.alternatives));
    config.set("fault_trace", rr::json::Value(cli.fault_trace_path));
    config.set("fault_deadline_seconds", rr::json::Value(cli.fault_deadline));
    config.set("seed", rr::json::Value(cli.seed));
    if (!cli.nets_path.empty())
      config.set("nets", rr::json::Value(cli.nets_path));
    rr::json::Value stats_doc = rr::placer::solve_stats_json(
        region, modules, outcome, "rrplace_cli-faults", std::move(config));
    rr::json::Value fault_doc = rr::json::Value::object();
    fault_doc.set("events", rr::json::Value(stats.events));
    fault_doc.set("tiles_faulted", rr::json::Value(stats.tiles_faulted));
    fault_doc.set("modules_hit", rr::json::Value(stats.modules_hit));
    fault_doc.set("recovered", rr::json::Value(stats.recovered));
    fault_doc.set("recovered_fraction", rr::json::Value(recovered_fraction));
    fault_doc.set("inplace_swaps", rr::json::Value(stats.inplace_swaps));
    fault_doc.set("local_replaces", rr::json::Value(stats.local_replaces));
    fault_doc.set("defrag_recoveries",
                  rr::json::Value(stats.defrag_recoveries));
    fault_doc.set("greedy_recoveries",
                  rr::json::Value(stats.greedy_recoveries));
    fault_doc.set("park_transitions", rr::json::Value(stats.parked));
    fault_doc.set("retries", rr::json::Value(stats.retries));
    fault_doc.set("retry_recoveries", rr::json::Value(stats.retry_recoveries));
    fault_doc.set("abandoned", rr::json::Value(stats.abandoned));
    fault_doc.set("deadline_expiries",
                  rr::json::Value(stats.deadline_expiries));
    fault_doc.set("relocated_modules",
                  rr::json::Value(stats.relocated_modules));
    fault_doc.set("relocated_tiles", rr::json::Value(stats.relocated_tiles));
    fault_doc.set("final_live", rr::json::Value(manager.live_count()));
    fault_doc.set("final_parked", rr::json::Value(manager.parked_count()));
    fault_doc.set("capacity_retained",
                  rr::json::Value(manager.capacity_retained()));
    fault_doc.set("utilization", rr::json::Value(manager.utilization()));
    rr::json::Value cost_doc = rr::json::Value::object();
    cost_doc.set("tiles_cleared",
                 rr::json::Value(manager.recovery_cost().tiles_cleared));
    cost_doc.set("tiles_written",
                 rr::json::Value(manager.recovery_cost().tiles_written));
    cost_doc.set("modules_loaded",
                 rr::json::Value(manager.recovery_cost().modules_loaded));
    fault_doc.set("recovery_cost", std::move(cost_doc));
    stats_doc.set("fault", std::move(fault_doc));
    if (nets != nullptr) {
      // Wirelength of what survived, at its possibly-relocated positions.
      std::vector<rr::comm::NamedPin> pins;
      for (const auto& p : manager.live_placements()) {
        const rr::model::Module& module = manager.module_of(p.module);
        const rr::Rect box =
            module.shapes()[static_cast<std::size_t>(p.shape)].bounding_box();
        pins.push_back(rr::comm::NamedPin{module.name(),
                                          rr::comm::center2(box, p.x, p.y)});
      }
      stats_doc.set("comm",
                    comm_stats_json(*nets, cli.comm_weight,
                                    rr::comm::pins_wirelength2(*nets, pins)));
    }
    if (cli.stats_json_path == "-") {
      std::cout << stats_doc.dump(2) << '\n';
    } else {
      std::ofstream out(cli.stats_json_path);
      if (!out) {
        std::cerr << "error: cannot write " << cli.stats_json_path << '\n';
        return 2;
      }
      out << stats_doc.dump(2) << '\n';
    }
  }
  return 0;
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
int run_serve_trace(const CliOptions& cli,
                    const rr::fpga::PartialRegion& region,
                    const std::shared_ptr<const rr::fpga::Fabric>& fabric,
                    const std::vector<rr::model::Module>& modules,
                    const std::shared_ptr<const rr::comm::NetList>& nets) {
  std::ifstream in(cli.serve_trace_path);
  if (!in) {
    std::cerr << "error: cannot read trace " << cli.serve_trace_path << '\n';
    return 2;
  }
  // Shared grammar parser (src/service/trace.*) — the same one the workload
  // generator's output round-trips through. InvalidInput propagates to
  // main's catch (exit 2) with the "<path>:<line>: <what>" message.
  const rr::service::ServeTrace trace = rr::service::parse_serve_trace(
      in, cli.serve_trace_path, modules, fabric->width(), fabric->height());
  const int tenants = trace.tenants;
  const std::vector<rr::service::Request>& requests = trace.requests;

  std::vector<rr::service::Tenant::Config> configs;
  configs.reserve(static_cast<std::size_t>(tenants));
  for (int t = 0; t < tenants; ++t) {
    rr::service::Tenant::Config config;
    config.fabric = fabric;
    config.library = modules;
    config.online.use_alternatives = cli.alternatives;
    config.online.policy = cli.online_policy;
    config.online.nets = nets;
    config.online.comm_weight = cli.comm_weight;
    configs.push_back(std::move(config));
  }
  rr::service::ServiceOptions service_options;
  service_options.workers = cli.serve_workers;
  service_options.queue_capacity = cli.serve_queue;
  service_options.cache_capacity = cli.serve_cache_cap;
  rr::service::PlacementService service(std::move(configs), service_options,
                                        cli.serve_cache);

  rr::Stopwatch watch;
  std::vector<std::future<rr::service::Response>> futures;
  futures.reserve(requests.size());
  for (const auto& request : requests)
    futures.push_back(service.submit(request));
  std::vector<rr::service::Response> responses;
  responses.reserve(futures.size());
  for (auto& future : futures) responses.push_back(future.get());
  const double seconds = watch.seconds();
  service.stop();
  const rr::service::ServiceStats stats = service.stats();
  const double throughput =
      seconds > 0.0 ? static_cast<double>(requests.size()) / seconds : 0.0;

  std::ostream& human = cli.stats_json_path == "-" ? std::cerr : std::cout;
  if (!cli.quiet) {
    using Status = rr::service::Response::Status;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const auto& request = requests[i];
      const auto& response = responses[i];
      const char* shed = shed_text(response.status);
      human << "  [t" << request.tenant << "] ";
      switch (request.op) {
        case rr::service::RequestOp::kPlace:
          human << "place " << request.instance << ' '
                << modules[static_cast<std::size_t>(request.module)].name()
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
        << " tenants on " << service.worker_count() << " workers  time: "
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
  if (cli.serve_cache) {
    human << "cache: " << stats.cache.hits << " hits / " << stats.cache.misses
          << " misses (" << rr::TextTable::pct(stats.cache.hit_rate())
          << "), " << stats.cache.invalidations << " invalidations, "
          << stats.cache.evictions << " evictions, " << stats.cache.entries
          << " entries (cap " << service.cache().capacity() << ")\n";
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

  if (!cli.stats_json_path.empty()) {
    rr::json::Value config = rr::json::Value::object();
    config.set("fabric", rr::json::Value(cli.fabric_path));
    config.set("modules", rr::json::Value(cli.modules_path));
    config.set("alternatives", rr::json::Value(cli.alternatives));
    config.set("trace", rr::json::Value(cli.serve_trace_path));
    config.set("workers", rr::json::Value(cli.serve_workers));
    config.set("queue_capacity",
               rr::json::Value(static_cast<std::uint64_t>(cli.serve_queue)));
    config.set("cache", rr::json::Value(cli.serve_cache));
    config.set("cache_capacity", rr::json::Value(static_cast<std::uint64_t>(
                                     cli.serve_cache_cap)));
    config.set("policy", rr::json::Value(policy_name(cli.online_policy)));
    // As with the online replay, the solve sections describe one offline
    // solve which a service replay doesn't have; the replay data lives in
    // the "service" section.
    rr::placer::PlacementOutcome outcome;
    outcome.seconds = seconds;
    rr::json::Value stats_doc = rr::placer::solve_stats_json(
        region, modules, outcome, "rrplace_cli-service", std::move(config));
    rr::json::Value service_doc = stats.to_json();
    service_doc.set("tenants", rr::json::Value(tenants));
    service_doc.set("workers", rr::json::Value(service.worker_count()));
    service_doc.set("seconds", rr::json::Value(seconds));
    service_doc.set("throughput_rps", rr::json::Value(throughput));
    stats_doc.set("service", std::move(service_doc));
    if (cli.stats_json_path == "-") {
      std::cout << stats_doc.dump(2) << '\n';
    } else {
      std::ofstream out(cli.stats_json_path);
      if (!out) {
        std::cerr << "error: cannot write " << cli.stats_json_path << '\n';
        return 2;
      }
      out << stats_doc.dump(2) << '\n';
    }
  }
  return 0;
}

// Long-horizon soak: generate an adversarial workload (src/sim), replay it
// through the placement service epoch by epoch, and audit end-state
// invariants at every epoch boundary. An audit runs only after every
// submitted future has resolved, so the shed counters are exact (inflight
// is zero) and the workers are quiescent on every tenant — the
// tenant_quiesced() contract. Invariants:
//
//   - accounting: submitted == completed + shed + stopped, exactly, and
//     every counter equals the number of responses observed with the
//     matching status (monotone across epochs);
//   - no leaked tiles: per tenant, occupancy-bitmap popcount ==
//     occupied-tile counter == sum of live footprint areas;
//   - conservation: live instances == accepted places - removes - fault
//     losses (displaced minus recovered);
//   - no live placement overlaps a faulty tile;
//   - optionally (--soak-floor) every tenant completed at least the floor
//     fraction of its submitted requests, checked once at the end.
int run_soak(const CliOptions& cli, const rr::fpga::PartialRegion& region,
             const std::shared_ptr<const rr::fpga::Fabric>& fabric,
             const std::vector<rr::model::Module>& modules,
             const std::shared_ptr<const rr::comm::NetList>& nets) {
  rr::sim::WorkloadParams params;
  params.tenants = cli.soak_tenants;
  params.requests = cli.soak_requests;
  params.seed = cli.seed;
  params.deadline_base_ms = cli.soak_deadline_ms;
  rr::sim::WorkloadGenerator generator(params, modules, fabric->width(),
                                       fabric->height());
  const rr::service::ServeTrace trace = generator.generate();

  if (!cli.gen_trace_path.empty()) {
    const std::string text = rr::sim::WorkloadGenerator::render(trace, modules);
    if (cli.gen_trace_path == "-") {
      std::cout << text;
    } else {
      std::ofstream out(cli.gen_trace_path);
      if (!out) {
        std::cerr << "error: cannot write " << cli.gen_trace_path << '\n';
        return 2;
      }
      out << text;
    }
    return 0;
  }

  const int tenants = trace.tenants;
  std::vector<rr::service::Tenant::Config> configs;
  configs.reserve(static_cast<std::size_t>(tenants));
  for (int t = 0; t < tenants; ++t) {
    rr::service::Tenant::Config config;
    config.fabric = fabric;
    config.library = modules;
    config.online.use_alternatives = cli.alternatives;
    config.online.policy = cli.online_policy;
    config.online.defrag.deadline_seconds = cli.defrag_seconds;
    config.online.defrag.seed = cli.seed;
    config.online.nets = nets;
    config.online.comm_weight = cli.comm_weight;
    configs.push_back(std::move(config));
  }
  rr::service::ServiceOptions service_options;
  service_options.workers = cli.serve_workers;
  service_options.queue_capacity = cli.serve_queue;
  service_options.cache_capacity = cli.serve_cache_cap;
  service_options.tenant_inflight_quota = cli.soak_quota;
  service_options.submit_retry_budget = cli.soak_retry;
  rr::service::PlacementService service(std::move(configs), service_options,
                                        cli.serve_cache);

  using Status = rr::service::Response::Status;
  // Instance → library module, recorded at submit time regardless of the
  // admission outcome: the generator never reuses ids, so this resolves the
  // footprint of any instance the placer reports live.
  std::vector<std::unordered_map<int, int>> instance_module(
      static_cast<std::size_t>(tenants));
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
  auto tenant_tag = [](int t) { return "tenant " + std::to_string(t); };

  rr::Stopwatch watch;
  std::size_t next = 0;
  std::vector<std::pair<std::size_t, std::future<rr::service::Response>>>
      inflight;
  while (next < trace.requests.size()) {
    const std::size_t end =
        std::min(trace.requests.size(),
                 next + static_cast<std::size_t>(cli.soak_epoch));
    inflight.clear();
    for (; next < end; ++next) {
      const rr::service::Request& request = trace.requests[next];
      const auto t = static_cast<std::size_t>(request.tenant);
      if (request.op == rr::service::RequestOp::kPlace)
        instance_module[t][request.instance] = request.module;
      ++tenant_submitted[t];
      inflight.emplace_back(next, service.submit(request));
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

    // --- Accounting audit.
    const rr::service::ShedCounters counters = service.shed_counters();
    if (counters.submitted != static_cast<std::uint64_t>(next))
      violate("submitted counter " + std::to_string(counters.submitted) +
              " != " + std::to_string(next) + " submit() calls");
    if (counters.submitted != counters.completed + counters.total_shed())
      violate("identity broken: submitted " +
              std::to_string(counters.submitted) + " != completed " +
              std::to_string(counters.completed) + " + shed " +
              std::to_string(counters.total_shed()));
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

    // --- Per-tenant state audit.
    for (int t = 0; t < tenants; ++t) {
      const auto ti = static_cast<std::size_t>(t);
      const rr::service::Tenant& tenant = service.tenant_quiesced(t);
      const rr::baseline::OnlinePlacer& placer = tenant.placer();
      const auto live = placer.live_placements();
      const long bitmap_tiles =
          static_cast<long>(placer.occupied_matrix().popcount());
      long footprint_tiles = 0;
      for (const auto& p : live) {
        const auto it = instance_module[ti].find(p.module);
        if (it == instance_module[ti].end()) {
          violate(tenant_tag(t) + ": live instance " +
                  std::to_string(p.module) + " the trace never placed");
          continue;
        }
        footprint_tiles +=
            modules[static_cast<std::size_t>(it->second)]
                .shapes()[static_cast<std::size_t>(p.shape)]
                .area();
      }
      if (bitmap_tiles != placer.occupied_tiles())
        violate(tenant_tag(t) + ": bitmap popcount " +
                std::to_string(bitmap_tiles) + " != occupied-tile counter " +
                std::to_string(placer.occupied_tiles()));
      if (footprint_tiles != placer.occupied_tiles())
        violate(tenant_tag(t) + ": leaked tiles: live footprints cover " +
                std::to_string(footprint_tiles) + " but " +
                std::to_string(placer.occupied_tiles()) + " are occupied");
      if (static_cast<long>(live.size()) != placer.live_count())
        violate(tenant_tag(t) + ": live_count " +
                std::to_string(placer.live_count()) + " != " +
                std::to_string(live.size()) + " live placements");
      if (placer.live_count() != accepted[ti] - removed[ti] - lost[ti])
        violate(tenant_tag(t) + ": conservation broken: " +
                std::to_string(placer.live_count()) + " live != " +
                std::to_string(accepted[ti]) + " accepted - " +
                std::to_string(removed[ti]) + " removed - " +
                std::to_string(lost[ti]) + " lost");
      if (placer.occupied_matrix().intersects_shifted(
              tenant.region().fault_mask(), 0, 0))
        violate(tenant_tag(t) + ": a live placement covers a faulty tile");
    }
  }
  const double seconds = watch.seconds();
  service.stop();
  const rr::service::ServiceStats stats = service.stats();
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
  if (cli.soak_floor > 0.0 && min_fraction < cli.soak_floor)
    violate("per-tenant completion floor: min fraction " +
            std::to_string(min_fraction) + " < " +
            std::to_string(cli.soak_floor));

  std::ostream& human = cli.stats_json_path == "-" ? std::cerr : std::cout;
  human << "soak: " << trace.requests.size() << " requests, " << tenants
        << " tenants on " << service.worker_count() << " workers, " << epochs
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

  if (!cli.stats_json_path.empty()) {
    rr::json::Value config = rr::json::Value::object();
    config.set("fabric", rr::json::Value(cli.fabric_path));
    config.set("modules", rr::json::Value(cli.modules_path));
    config.set("requests", rr::json::Value(cli.soak_requests));
    config.set("tenants", rr::json::Value(tenants));
    config.set("epoch", rr::json::Value(cli.soak_epoch));
    config.set("seed", rr::json::Value(cli.seed));
    config.set("quota", rr::json::Value(cli.soak_quota));
    config.set("deadline_base_ms", rr::json::Value(cli.soak_deadline_ms));
    config.set("retry_budget", rr::json::Value(cli.soak_retry));
    config.set("defrag_deadline_seconds", rr::json::Value(cli.defrag_seconds));
    rr::placer::PlacementOutcome outcome;
    outcome.seconds = seconds;
    rr::json::Value stats_doc = rr::placer::solve_stats_json(
        region, modules, outcome, "rrplace_cli-soak", std::move(config));
    rr::json::Value service_doc = stats.to_json();
    service_doc.set("tenants", rr::json::Value(tenants));
    service_doc.set("workers", rr::json::Value(service.worker_count()));
    service_doc.set("seconds", rr::json::Value(seconds));
    service_doc.set("throughput_rps", rr::json::Value(throughput));
    stats_doc.set("service", std::move(service_doc));
    rr::json::Value soak_doc = rr::json::Value::object();
    soak_doc.set("requests", rr::json::Value(
                                 static_cast<std::uint64_t>(
                                     trace.requests.size())));
    soak_doc.set("epochs", rr::json::Value(epochs));
    soak_doc.set("violations", rr::json::Value(violations));
    soak_doc.set("final_live", rr::json::Value(total_live));
    soak_doc.set("lost", rr::json::Value(total_lost));
    soak_doc.set("min_tenant_completed_fraction",
                 rr::json::Value(min_fraction));
    stats_doc.set("soak", std::move(soak_doc));
    if (cli.stats_json_path == "-") {
      std::cout << stats_doc.dump(2) << '\n';
    } else {
      std::ofstream out(cli.stats_json_path);
      if (!out) {
        std::cerr << "error: cannot write " << cli.stats_json_path << '\n';
        return 2;
      }
      out << stats_doc.dump(2) << '\n';
    }
  }
  return violations == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions cli = parse_args(argc, argv);
  try {
    rr::fpga::Fabric fabric_desc = rr::fpga::load_fdf(cli.fabric_path);
    if (cli.bus_period > 0) {
      rr::comm::BusSpec bus;
      bus.lane_period = cli.bus_period;
      bus.lane_offset = cli.bus_offset;
      fabric_desc = rr::comm::with_bus_lanes(fabric_desc, bus);
    }
    const auto fabric =
        std::make_shared<const rr::fpga::Fabric>(std::move(fabric_desc));
    rr::fpga::PartialRegion region(fabric);
    if (!cli.faults_path.empty()) {
      // Pre-existing damage: the resulting fault map masks the region's
      // availability, so the solve below places around the dead tiles.
      const auto trace = rr::fpga::load_fault_trace(cli.faults_path);
      if (trace.width != fabric->width() ||
          trace.height != fabric->height()) {
        std::cerr << "error: fault trace is " << trace.width << 'x'
                  << trace.height << " but the fabric is " << fabric->width()
                  << 'x' << fabric->height() << '\n';
        return 2;
      }
      region.apply_faults(rr::fpga::fault_map_from_trace(trace));
    }
    auto modules = rr::model::load_mlf(cli.modules_path);
    if (modules.empty()) {
      std::cerr << "error: module library is empty\n";
      return 2;
    }
    if (cli.bus_attach_set)
      // Throws ModelError (exit 2 below) when the row is outside a shape.
      modules = rr::comm::with_bus_attachment(modules, cli.bus_attach);
    std::shared_ptr<const rr::comm::NetList> nets;
    if (!cli.nets_path.empty())
      nets = std::make_shared<const rr::comm::NetList>(
          rr::comm::load_nets(cli.nets_path));

    if (!cli.anchors_module.empty()) {
      for (const auto& module : modules) {
        if (module.name() != cli.anchors_module) continue;
        std::cout << rr::render::anchor_mask_ascii(region,
                                                   module.shapes().front())
                  << rr::render::legend();
        return 0;
      }
      std::cerr << "error: no module named '" << cli.anchors_module << "'\n";
      return 2;
    }

    if (!cli.online_trace_path.empty()) {
      // Collection must be on before the replay so the "online.defrag.*"
      // counters reach the stats document's metrics section.
      if (!cli.stats_json_path.empty()) rr::metrics::set_enabled(true);
      return run_online_trace(cli, region, modules, nets);
    }

    if (!cli.fault_trace_path.empty()) {
      if (!cli.stats_json_path.empty()) rr::metrics::set_enabled(true);
      return run_fault_trace(cli, region, modules, nets);
    }

    if (!cli.serve_trace_path.empty()) {
      // Collection must be on before the service spawns its workers so the
      // per-worker metric shards (service.* counters) are recorded.
      if (!cli.stats_json_path.empty()) rr::metrics::set_enabled(true);
      return run_serve_trace(cli, region, fabric, modules, nets);
    }

    if (cli.soak_requests > 0) {
      if (!cli.stats_json_path.empty()) rr::metrics::set_enabled(true);
      return run_soak(cli, region, fabric, modules, nets);
    }

    rr::placer::PlacerOptions options;
    options.use_alternatives = cli.alternatives;
    options.time_limit_seconds = cli.time_limit;
    options.mode = cli.mode;
    options.workers = cli.workers;
    options.seed = cli.seed;
    options.nets = nets.get();
    options.comm_weight = cli.comm_weight;
    // Collection must be on before the Placer builds its Spaces: each Space
    // snapshots the flag at construction.
    if (!cli.stats_json_path.empty()) rr::metrics::set_enabled(true);
    rr::placer::Placer placer(region, modules, options);
    const auto outcome = placer.place();

    if (!cli.stats_json_path.empty()) {
      rr::json::Value config = rr::json::Value::object();
      config.set("fabric", rr::json::Value(cli.fabric_path));
      config.set("modules", rr::json::Value(cli.modules_path));
      config.set("alternatives", rr::json::Value(cli.alternatives));
      config.set("time_limit", rr::json::Value(cli.time_limit));
      config.set("workers", rr::json::Value(cli.workers));
      config.set("seed", rr::json::Value(cli.seed));
      if (!cli.nets_path.empty())
        config.set("nets", rr::json::Value(cli.nets_path));
      rr::json::Value stats = rr::placer::solve_stats_json(
          region, modules, outcome, "rrplace_cli", std::move(config));
      if (nets != nullptr) {
        long wirelength2 = 0;
        if (outcome.solution.feasible) {
          const rr::comm::BoundNets bound(*nets, modules);
          std::vector<rr::comm::Center2> centers(modules.size());
          for (const auto& p : outcome.solution.placements) {
            const rr::Rect box = modules[static_cast<std::size_t>(p.module)]
                                     .shapes()[static_cast<std::size_t>(p.shape)]
                                     .bounding_box();
            centers[static_cast<std::size_t>(p.module)] =
                rr::comm::center2(box, p.x, p.y);
          }
          wirelength2 = bound.wirelength2(centers);
        }
        stats.set("comm",
                  comm_stats_json(*nets, cli.comm_weight, wirelength2));
      }
      if (cli.stats_json_path == "-") {
        std::cout << stats.dump(2) << '\n';
      } else {
        std::ofstream out(cli.stats_json_path);
        if (!out) {
          std::cerr << "error: cannot write " << cli.stats_json_path << '\n';
          return 2;
        }
        out << stats.dump(2) << '\n';
      }
    }

    // With --stats-json - the document owns stdout; the human-readable
    // report moves to stderr so the output stays machine-parseable.
    std::ostream& human =
        cli.stats_json_path == "-" ? std::cerr : std::cout;

    if (!outcome.solution.feasible) {
      human << "infeasible"
                << (outcome.optimal ? " (proven: no placement exists)" : "")
                << '\n';
      return 1;
    }
    const auto report = rr::placer::validate(region, modules, outcome.solution);
    if (!report.ok()) {
      std::cerr << "internal error: solution failed validation: "
                << report.errors.front() << '\n';
      return 3;
    }
    if (!cli.quiet) {
      human << rr::render::placement_ascii(region, modules,
                                               outcome.solution)
                << rr::render::legend();
    }
    human << "modules: " << modules.size()
              << "  extent: " << outcome.solution.extent
              << (outcome.optimal ? " (optimal)" : " (best found)")
              << "  utilization: "
              << rr::TextTable::pct(rr::placer::spanned_utilization(
                     region, modules, outcome.solution))
              << "  time: " << rr::TextTable::num(outcome.seconds, 3)
              << "s\n";
    for (const auto& p : outcome.solution.placements) {
      human << "  " << modules[static_cast<std::size_t>(p.module)].name()
                << " shape=" << p.shape << " at (" << p.x << "," << p.y
                << ")\n";
    }
    if (!cli.svg_path.empty()) {
      rr::render::save_placement_svg(cli.svg_path, region, modules,
                                     outcome.solution);
      human << "SVG written to " << cli.svg_path << '\n';
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 2;
  }
}
