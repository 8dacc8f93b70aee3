// qfc_perfbench: the repository benchmark. One run measures one workload,
// a generated sweep config, through the public qfc::io + qfc::sweep path
// that tools/qfc_sweep.cpp takes: Json::parse -> expand_sweep_config ->
// run_sweep -> Json::dump(2). Workloads, metrics and findings are in
// perfbench/README.md.
//
//   qfc_perfbench --workload smoke_sweep --seed 1 --seconds 20 --trace 0
//
// --trace 0 times passes with obs off and reports the end-to-end metrics.
// --trace 1 is the separate traced run: it times passes with obs off, then
// with tracing and metrics on (obs::enable()), then runs every instance on
// its own and probes each layer's public functions, and reports the
// per-layer metrics. It writes the Chrome trace and a self-time table
// under --artifacts.
//
// Correctness: every pass's report bytes are hashed and compared with the
// first pass; param_study is byte-compared once at its sweep worker count
// against 1 worker; every scenario result is checked for physics sanity.
// The last line of stdout is one JSON object with the keys correct,
// attempted, failed and metrics.
//
// Exit codes: 0 every output correct; 1 an output was wrong (the result
// line still prints); 2 usage error, or a build or host it refuses.

#include <sched.h>
#include <unistd.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include "bench.hpp"
#include "qfc/detect/event_engine.hpp"
#include "qfc/linalg/backend.hpp"
#include "qfc/obs/obs.hpp"
#include "qfc/sweep/scenario.hpp"
#include "qfc/sweep/sweep.hpp"

namespace perfbench {

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  if (v.size() % 2 == 1) return *mid;
  return (*mid + *std::max_element(v.begin(), mid)) / 2;
}

Tail tail(std::vector<double> v, std::size_t beyond) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t index = v.size() > beyond ? v.size() - beyond - 1 : v.size() - 1;
  t.value = v[index];
  t.percentile = 100.0 * static_cast<double>(index + 1) / static_cast<double>(v.size());
  return t;
}

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

namespace {

using qfc::io::Json;
using qfc::sweep::SweepPlan;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string commit = "none";
  std::string source_digest = "none";
  std::string artifacts = ".bench_build/artifacts";
  /// Measuring-process mode, started by run_children().
  bool child = false;
};

bool parse_args(int argc, char** argv, Args& a) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        a.workload = value;
      } else if (key == "--seed") {
        a.seed = std::stoull(value);
        have_seed = true;
      } else if (key == "--seconds") {
        a.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") return false;
        a.trace = value == "1";
      } else if (key == "--commit") {
        a.commit = value;
      } else if (key == "--source-digest") {
        a.source_digest = value;
      } else if (key == "--artifacts") {
        a.artifacts = value;
      } else if (key == "--child") {
        a.child = value == "1";
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && have_seed && a.seconds > 0;
}

/// Why this build must not be measured, or empty.
std::string refused_build() {
  const std::string type = PERFBENCH_BUILD_TYPE;
  if (type != "Release") return "build type is '" + type + "', not Release";
#ifndef NDEBUG
  return "NDEBUG is not defined (assertions are on)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "built with a sanitizer";
#endif
  if (std::string(PERFBENCH_CXX_FLAGS).find("-fsanitize") != std::string::npos)
    return "CMAKE_CXX_FLAGS carry -fsanitize";
  return {};
}

/// CPUs this process may run on (what `nproc` prints).
unsigned nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return static_cast<unsigned>(CPU_COUNT(&set));
  return std::max(1u, std::thread::hardware_concurrency());
}

// ------------------------------------------------------------------ set-up

struct Setup {
  SweepPlan plan;
  double parse_s = 0;   ///< median over the repetitions
  double expand_s = 0;  ///< median over the repetitions
};

/// Generates, serializes, parses and expands the workload config; what
/// `qfc_sweep --config` does before its first instance runs. Repeated
/// `reps` times for the parse and expand medians.
Setup set_up(const Workload& w, std::uint64_t seed, int reps) {
  Setup s;
  std::vector<double> parse, expand;
  for (int r = 0; r < reps; ++r) {
    const std::string text = make_config(w, seed).dump(2);
    const auto t0 = Clock::now();
    const Json parsed = Json::parse(text);
    const auto t1 = Clock::now();
    s.plan = qfc::sweep::expand_sweep_config(parsed);
    parse.push_back(seconds_between(t0, t1));
    expand.push_back(seconds_between(t1, Clock::now()));
  }
  s.parse_s = median(parse);
  s.expand_s = median(expand);
  return s;
}

// ------------------------------------------------------------------ passes

struct Pass {
  double wall_s = 0;  ///< run_sweep + dump(2)
  double cpu_s = 0;   ///< process CPU over the same interval
  double dump_s = 0;
  std::uint64_t hash = 0;
  std::size_t bytes = 0;
  std::size_t failed = 0;
};

/// One pass: the sweep and its serialization. The spans cost one relaxed
/// load each while tracing is off.
Pass run_pass(const SweepPlan& plan, int workers, Json* keep_report = nullptr) {
  qfc::sweep::SweepReport report;
  std::string bytes;
  Pass p;
  {
    QFC_OBS_SPAN("bench.pass");
    const double cpu0 = process_cpu_s();
    const auto t0 = Clock::now();
    {
      QFC_OBS_SPAN("bench.sweep.run_sweep");
      report = qfc::sweep::run_sweep(plan, workers);
    }
    const auto t1 = Clock::now();
    {
      QFC_OBS_SPAN("bench.io.dump");
      bytes = report.json.dump(2);
    }
    const auto t2 = Clock::now();
    p.cpu_s = process_cpu_s() - cpu0;
    p.wall_s = seconds_between(t0, t2);
    p.dump_s = seconds_between(t1, t2);
  }
  p.hash = fnv1a64(bytes);
  p.bytes = bytes.size();
  p.failed = report.num_failed;
  if (keep_report != nullptr) *keep_report = std::move(report.json);
  return p;
}

/// Correctness accounting of one run: instances attempted, failures, and
/// the first pass's report hash every later pass must reproduce.
class Checker {
 public:
  void pass(const Pass& p, std::size_t instances) {
    attempted_ += instances;
    if (p.failed > 0) fail(p.failed, std::to_string(p.failed) + " instance(s) failed");
    report_hash(p.hash);
  }
  /// The first hash seen is the reference; every later one must equal it.
  void report_hash(std::uint64_t hash) {
    if (!have_reference_) {
      reference_ = hash;
      have_reference_ = true;
    } else if (hash != reference_) {
      fail(1, "a report hash differs from the first pass");
    }
  }
  void attempt(std::size_t n) { attempted_ += n; }
  void fail(std::size_t n, const std::string& why) {
    failed_ += n;
    if (problems_.size() < 20) problems_.push_back(why);
  }

  std::uint64_t reference() const { return reference_; }
  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }
  const std::vector<std::string>& problems() const { return problems_; }

 private:
  bool have_reference_ = false;
  std::uint64_t reference_ = 0;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::vector<std::string> problems_;
};

/// Passes until `seconds` have elapsed and at least `min_passes` ran.
std::vector<Pass> timed_passes(const SweepPlan& plan, int workers, double seconds,
                               std::size_t min_passes, Checker& check) {
  std::vector<Pass> passes;
  const auto start = Clock::now();
  while (passes.size() < min_passes || seconds_between(start, Clock::now()) < seconds) {
    passes.push_back(run_pass(plan, workers));
    check.pass(passes.back(), plan.instances.size());
  }
  return passes;
}

std::vector<double> field(const std::vector<Pass>& passes, double Pass::*member) {
  std::vector<double> out;
  for (const Pass& p : passes) out.push_back(p.*member);
  return out;
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// What one measuring process (this binary with --child 1) reports.
struct ChildRun {
  double setup_s = 0;  ///< set-up + first pass, caches and pools cold
  std::vector<double> wall_s, cpu_s;
  double rss_mb = 0;
};

/// Runs `count` measuring processes one after another, each for an equal
/// share of `seconds`, and pools their samples. Each process gives one
/// cold set-up sample; pooling passes from several processes also folds
/// process-to-process differences (allocation, memory placement) into the
/// medians. Each child's report must match the others' byte for byte.
std::vector<ChildRun> run_children(const Args& args, int count, Checker& check) {
  std::vector<ChildRun> runs;
  char exe[4096];
  const ssize_t n = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (n <= 0) {
    check.attempt(1);
    check.fail(1, "cannot locate the benchmark binary to start measuring processes");
    return runs;
  }
  exe[n] = '\0';
  char share[32];
  std::snprintf(share, sizeof(share), "%.6f", args.seconds / count);
  const std::string cmd = "'" + std::string(exe) + "' --child 1 --workload " + args.workload +
                          " --seed " + std::to_string(args.seed) + " --seconds " + share +
                          " --trace 0";
  for (int r = 0; r < count; ++r) {
    FILE* pipe = popen(cmd.c_str(), "r");
    std::string out;
    char buf[4096];
    while (pipe != nullptr && std::fgets(buf, sizeof(buf), pipe) != nullptr) out += buf;
    const int status = pipe != nullptr ? pclose(pipe) : -1;
    Json line;
    try {
      line = Json::parse(out);
    } catch (const qfc::io::JsonError&) {
    }
    if (status != 0 || !line.is_object()) {
      check.attempt(1);
      check.fail(1, "a measuring process failed");
      continue;
    }
    const auto numbers = [&](const char* key) {
      std::vector<double> v;
      for (const Json& x : line.find(key)->array_items()) v.push_back(x.number_value());
      return v;
    };
    check.attempt(static_cast<std::size_t>(line.find("attempted")->int_value()));
    if (const auto failed = line.find("failed")->int_value(); failed > 0)
      check.fail(static_cast<std::size_t>(failed), "a measuring process saw wrong output");
    for (const Json& problem : line.find("problems")->array_items())
      check.fail(0, problem.string_value());
    check.report_hash(std::stoull(line.find("report_hash")->string_value(), nullptr, 16));
    runs.push_back({line.find("setup_s")->number_value(), numbers("wall_s"), numbers("cpu_s"),
                    line.find("rss_mb")->number_value()});
  }
  return runs;
}

/// The --child 1 mode: set up, run the first pass cold, then time passes
/// for `args.seconds`, and print one JSON line for run_children().
int child_main(const Args& args, const SweepPlan& plan, int workers,
               Clock::time_point cold_start) {
  Checker check;
  Json report;
  const Pass first = run_pass(plan, workers, &report);
  const double setup_s = seconds_between(cold_start, Clock::now());
  check.pass(first, plan.instances.size());
  for (const std::string& problem : check_report(report)) check.fail(1, problem);
  report = Json();
  const auto timed = timed_passes(plan, workers, args.seconds, 1, check);
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);

  Json out = Json::make_object();
  out.set("setup_s", setup_s);
  Json wall = Json::make_array(), cpu = Json::make_array(), problems = Json::make_array();
  for (const Pass& p : timed) {
    wall.push_back(p.wall_s);
    cpu.push_back(p.cpu_s);
  }
  for (const std::string& problem : check.problems()) problems.push_back(problem);
  out.set("wall_s", std::move(wall));
  out.set("cpu_s", std::move(cpu));
  out.set("rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0);
  out.set("report_hash", hex(check.reference()));
  out.set("attempted", check.attempted());
  out.set("failed", check.failed());
  out.set("problems", std::move(problems));
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

// ----------------------------------------------------------------- metrics

/// Metrics in output order, each with its unit, plus a note for the table.
class Metrics {
 public:
  void add(const std::string& name, double value, const char* unit, std::string note = {}) {
    rows_.push_back({name, value, unit, std::move(note)});
  }
  void print_table(const char* title) const {
    std::printf("%s\n", title);
    for (const Row& r : rows_)
      std::printf("  %-40s %16.9g %-6s %s\n", r.name.c_str(), r.value, r.unit, r.note.c_str());
  }
  Json json() const {
    Json out = Json::make_object();
    for (const Row& r : rows_) {
      Json m = Json::make_object();
      m.set("value", r.value);
      m.set("unit", r.unit);
      out.set(r.name, std::move(m));
    }
    return out;
  }

 private:
  struct Row {
    std::string name;
    double value;
    const char* unit;
    std::string note;
  };
  std::vector<Row> rows_;
};

// -------------------------------------------------------------- traced run

/// One instance run as a one-instance sweep, timed.
struct InstanceTime {
  const qfc::sweep::ScenarioInstance* instance;
  bool reference;  ///< stands in for a scenario the workload lacks
  double seconds;
};

/// Runs every instance of the workload on its own, then one instance of
/// each scenario the workload lacks, taken from the smoke sweep with the
/// same seed, so every scenario has a figure on every workload.
std::vector<InstanceTime> time_instances(const SweepPlan& plan, const SweepPlan& smoke,
                                         Checker& check) {
  std::vector<InstanceTime> list;
  for (const auto& inst : plan.instances) list.push_back({&inst, false, 0});
  for (const auto& s : qfc::sweep::ScenarioRegistry::instance().scenarios()) {
    const auto named = [&](const qfc::sweep::ScenarioInstance& i) { return i.scenario == s.name; };
    if (std::any_of(plan.instances.begin(), plan.instances.end(), named)) continue;
    const auto it = std::find_if(smoke.instances.begin(), smoke.instances.end(), named);
    if (it != smoke.instances.end()) list.push_back({&*it, true, 0});
  }
  for (InstanceTime& t : list) {
    SweepPlan one;
    one.instances = {*t.instance};
    const char* name = qfc::sweep::ScenarioRegistry::instance().find(t.instance->scenario)->name;
    QFC_OBS_SPAN("bench.sweep.instance", {{"scenario", name}});
    const auto t0 = Clock::now();
    const auto report = qfc::sweep::run_sweep(one, 1);
    t.seconds = seconds_between(t0, Clock::now());
    check.attempt(1);
    if (report.num_failed > 0) check.fail(1, "instance of " + t.instance->scenario + " failed");
  }
  return list;
}

/// Parameters of the slowest instance of `scenario` in the list.
const Json& heaviest(const std::vector<InstanceTime>& times, std::string_view scenario) {
  const InstanceTime* best = nullptr;
  for (const InstanceTime& t : times)
    if (t.instance->scenario == scenario && (best == nullptr || t.seconds > best->seconds))
      best = &t;
  return best->instance->params;
}

/// Sum of the obs counters whose names start with `prefix`.
double counter_sum(const Json& metrics, std::string_view prefix) {
  double sum = 0;
  if (const Json* counters = metrics.find("counters"))
    for (const auto& [name, value] : counters->object_members())
      if (name.rfind(prefix, 0) == 0) sum += value.number_value();
  return sum;
}

void write_file(const std::filesystem::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  if (!out) std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
}

Metrics traced_run(const Args& args, const Workload& w, const Setup& setup, int workers,
                   Checker& check, std::size_t& passes) {
  const SweepPlan& plan = setup.plan;
  const auto untraced = timed_passes(plan, workers, 0.5 * args.seconds, 5, check);

  qfc::obs::reset();
  qfc::obs::enable();
  const auto traced = timed_passes(plan, workers, 0.25 * args.seconds, 3, check);
  const Json pass_metrics = Json::parse(qfc::obs::metrics_json());
  const double n_traced = static_cast<double>(traced.size());
  passes = untraced.size() + traced.size();

  const SweepPlan smoke =
      qfc::sweep::expand_sweep_config(make_config(*find_workload("smoke_sweep"), args.seed));
  const auto instances = time_instances(plan, smoke, check);
  const TomoProbe tomo = probe_tomo(heaviest(instances, "four_photon"));
  const LinalgProbe linalg = probe_linalg(args.seed);
  const StreamProbe stream = probe_stream(heaviest(instances, "qkd_network"), 3);
  const SplitProbe split = probe_split(heaviest(instances, "qkd_network"));
  const BatchProbe batch = probe_batch(heaviest(instances, "heralded_channel_table"));

  const std::string trace = qfc::obs::trace_json();
  qfc::obs::disable();
  const std::vector<Span> spans = parse_trace(trace);

  // Pass windows, span coverage and pool threads from the traced passes.
  std::vector<Span> in_passes;
  double pass_us = 0, covered_us = 0;
  std::size_t pool_threads = 0;
  for (const Span& p : spans) {
    if (p.name != "bench.pass") continue;
    pass_us += p.dur_us;
    covered_us += program_coverage(spans, p.t0_us, p.t1_us()) * p.dur_us;
    pool_threads = std::max(pool_threads, distinct_threads(spans, "pool.work", p.t0_us, p.t1_us()));
    for (const Span& s : spans)
      if (s.t0_us >= p.t0_us && s.t1_us() <= p.t1_us()) in_passes.push_back(s);
  }
  const auto pass_rows = self_times(in_passes);
  const auto layer_rows = by_layer(pass_rows);

  std::printf("per-layer self time over %zu traced passes (s per pass, share of pass wall)\n",
              traced.size());
  for (const SelfTime& l : layer_rows)
    std::printf("  %-12s %12.6f  %6.1f%%\n", l.name.c_str(), l.self_s / n_traced,
                100.0 * l.self_s * 1e6 / pass_us);
  std::printf("top spans by self time over the traced passes\n");
  for (std::size_t i = 0; i < std::min<std::size_t>(12, pass_rows.size()); ++i)
    std::printf("  %-32s %9zu calls %12.6f s self %12.6f s total\n", pass_rows[i].name.c_str(),
                pass_rows[i].count, pass_rows[i].self_s / n_traced,
                pass_rows[i].total_s / n_traced);

  const std::filesystem::path dir(args.artifacts);
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string stem = w.name + std::string(".seed") + std::to_string(args.seed);
  write_file(dir / (stem + ".trace.json"), trace);
  std::string table = "layer_or_span\tcalls\ttotal_s_per_pass\tself_s_per_pass\n";
  for (const auto* rows : {&layer_rows, &pass_rows})
    for (const SelfTime& r : *rows)
      table += r.name + "\t" + std::to_string(r.count) + "\t" +
               std::to_string(r.total_s / n_traced) + "\t" + std::to_string(r.self_s / n_traced) +
               "\n";
  write_file(dir / (stem + ".selftime.tsv"), table);
  std::printf("trace and self-time table: %s/%s.{trace.json,selftime.tsv}\n",
              args.artifacts.c_str(), stem.c_str());

  // ---- the per-layer metrics
  Metrics m;
  struct ScenarioSum {
    double seconds = 0;
    bool reference = false;
  };
  std::map<std::string, ScenarioSum> per_scenario;
  double serial_s = 0, critical_s = 0;
  for (const auto& s : qfc::sweep::ScenarioRegistry::instance().scenarios())
    per_scenario[s.name] = {};
  for (const InstanceTime& t : instances) {
    ScenarioSum& sum = per_scenario[t.instance->scenario];
    sum.seconds += t.seconds;
    sum.reference = t.reference;
    if (t.reference) continue;
    serial_s += t.seconds;
    critical_s = std::max(critical_s, t.seconds);
  }
  const double untraced_p50 = median(field(untraced, &Pass::wall_s));
  for (const auto& [scenario, sum] : per_scenario)
    m.add("sweep.instance_s." + scenario, sum.seconds, "s",
          sum.reference ? "(smoke reference instance)" : "");
  m.add("sweep.critical_instance_s", critical_s, "s");
  m.add("sweep.parallel_efficiency", serial_s / (workers * untraced_p50), "ratio",
        "serial instance sum / (workers x pass p50)");
  m.add("sweep.expand_s", setup.expand_s, "s");
  m.add("io.parse_s", setup.parse_s, "s");
  m.add("io.dump_s", median(field(untraced, &Pass::dump_s)), "s");
  m.add("io.report_bytes", static_cast<double>(untraced.front().bytes), "bytes");

  m.add("tomo.mle4_s", tomo.mle4_s, "s");
  m.add("tomo.mle2_s", tomo.mle2_s, "s", "both 2-qubit pairs");
  m.add("tomo.iterations4", tomo.iterations4, "count");
  m.add("tomo.iterations2", tomo.iterations2, "count", "both pairs");
  m.add("tomo.iter_us4", tomo.iterations4 > 0 ? tomo.mle4_s * 1e6 / tomo.iterations4 : 0, "us");
  m.add("tomo.converged_ratio", tomo.converged / 3.0, "ratio", "of 3 reconstructions");
  m.add("tomo.simulate_s", tomo.simulate_s, "s");

  m.add("linalg.gemm16_us", linalg.gemm16_us, "us");
  m.add("linalg.eig16_us", linalg.eig16_us, "us");
  m.add("linalg.gemm_calls", counter_sum(pass_metrics, "linalg.blocked.gemm.calls") / n_traced,
        "count", "per pass");
  m.add("linalg.gemm_flops", counter_sum(pass_metrics, "linalg.blocked.gemm.flops") / n_traced,
        "count", "per pass");
  m.add("linalg.eig_calls", counter_sum(pass_metrics, "linalg.blocked.eig.calls") / n_traced,
        "count", "per pass");
  m.add("linalg.eig_rotations", counter_sum(pass_metrics, "linalg.blocked.eig.rotations") / n_traced,
        "count", "per pass");

  const double stream_s = stream.next_s + stream.push_s + stream.finish_s;
  m.add("detect.stream_next_s", stream.next_s, "s");
  m.add("detect.car_push_s", stream.push_s, "s");
  m.add("detect.car_finish_s", stream.finish_s, "s");
  m.add("detect.events", static_cast<double>(stream.events), "count");
  m.add("detect.events_per_s", static_cast<double>(stream.events) / stream_s, "1/s",
        "events / (next + push + finish)");
  m.add("detect.windows", static_cast<double>(stream.windows), "count");
  m.add("detect.boundary_violations", static_cast<double>(stream.boundary_violations), "count");
  m.add("detect.rss_growth_kb", static_cast<double>(stream.rss_growth_kb), "kB");
  m.add("detect.emit_s", split.emit_s, "s", "serial, every channel");
  m.add("detect.detector_s", split.detector_s, "s", "serial, both arms");
  m.add("detect.merge_s", split.merge_s, "s", "idler table");
  m.add("detect.batch_run_s", batch.run_s, "s");
  m.add("detect.car_matrix_s", batch.car_matrix_s, "s");
  m.add("core.network_run_s", stream.network_run_s, "s");
  m.add("core.network_other_s", stream.network_run_s - stream_s, "s",
        "run - (next + push + finish)");

  m.add("parallel.busy_s", counter_sum(pass_metrics, "parallel.worker_busy_ns.") * 1e-9 /
                               n_traced,
        "s", "per pass");
  m.add("parallel.tasks", counter_sum(pass_metrics, "parallel.tasks") / n_traced, "count",
        "per pass");
  m.add("parallel.threads", static_cast<double>(pool_threads), "count",
        "threads seen in pool.work spans in one pass");
  m.add("obs.trace_overhead", median(field(traced, &Pass::wall_s)) / untraced_p50 - 1, "ratio");
  m.add("obs.span_coverage", pass_us > 0 ? covered_us / pass_us : 0, "ratio");

  std::printf("attribution: instance sum %.6f s vs %d worker(s) x pass p50 %.6f s (%+.1f%%)\n",
              serial_s, workers, untraced_p50,
              100.0 * (serial_s / (workers * untraced_p50) - 1));
  std::printf("attribution: network run %.6f s = next %.6f + push %.6f + finish %.6f + other "
              "%.6f s (other %.1f%% of run)\n",
              stream.network_run_s, stream.next_s, stream.push_s, stream.finish_s,
              stream.network_run_s - stream_s,
              100.0 * (stream.network_run_s - stream_s) / stream.network_run_s);
  return m;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--commit SHA] [--source-digest HEX] [--artifacts DIR]\n",
                 argv[0]);
    return 2;
  }
  const Workload* w = find_workload(args.workload);
  if (w == nullptr) {
    std::string names;
    for (const auto& n : workload_names()) names += " " + n;
    std::fprintf(stderr, "perfbench: unknown workload '%s' (known:%s)\n", args.workload.c_str(),
                 names.c_str());
    return 2;
  }
  if (const std::string why = refused_build(); !why.empty()) {
    std::fprintf(stderr, "perfbench: refusing to measure: %s\n", why.c_str());
    return 2;
  }

  // ---- thread knobs and the thread budget
  const unsigned cpus = nproc();
  const int workers = std::min(w->sweep_workers, static_cast<int>(cpus));
  if (w->analysis_threads > 0) qfc::detect::set_analysis_threads(w->analysis_threads);
  if (w->backend_threads > 0) qfc::linalg::set_backend_threads(w->backend_threads);

  const auto cold_start = Clock::now();
  const Setup setup = set_up(*w, args.seed, args.trace ? 31 : 1);
  const SweepPlan& plan = setup.plan;
  const bool has_network =
      std::any_of(plan.instances.begin(), plan.instances.end(),
                  [](const auto& i) { return i.scenario == "qkd_network"; });
  // Inner threads one instance may run at once: the pinned (or default)
  // analysis and linalg pools, and the network's generation pool, which
  // always uses one thread per hardware thread.
  const unsigned instance_threads =
      std::max({qfc::detect::analysis_threads(), qfc::linalg::backend_threads(),
                has_network ? std::max(1u, std::thread::hardware_concurrency()) : 1u});
  const unsigned budget = static_cast<unsigned>(workers) * instance_threads;
  if (budget > cpus) {
    std::fprintf(stderr,
                 "perfbench: refusing to measure: %d sweep worker(s) x %u inner thread(s) = %u "
                 "threads exceed nproc = %u\n",
                 workers, instance_threads, budget, cpus);
    return 2;
  }

  if (args.child) return child_main(args, plan, workers, cold_start);

  Checker check;
  Metrics metrics;
  std::size_t passes = 0;
  if (!args.trace) {
    constexpr int kProcesses = 8;
    const std::vector<ChildRun> runs = run_children(args, kProcesses, check);
    std::vector<double> setups, walls, cpus_s, rss;
    for (const ChildRun& r : runs) {
      setups.push_back(r.setup_s);
      walls.insert(walls.end(), r.wall_s.begin(), r.wall_s.end());
      cpus_s.insert(cpus_s.end(), r.cpu_s.begin(), r.cpu_s.end());
      rss.push_back(r.rss_mb);
    }
    passes = walls.size();
    const Tail t = tail(walls);
    char note[96];
    std::snprintf(note, sizeof(note), "median of %zu processes: set-up + first pass",
                  setups.size());
    metrics.add("setup_s", median(setups), "s", note);
    std::snprintf(note, sizeof(note), "median of %zu passes in %zu processes", passes,
                  runs.size());
    metrics.add("pass_s_p50", median(walls), "s", note);
    std::snprintf(note, sizeof(note), "p%.1f of %zu passes (10 beyond it)", t.percentile,
                  t.samples);
    metrics.add("pass_s_tail", t.value, "s", note);
    metrics.add("cpu_s_p50", median(cpus_s), "s", "process user + sys");
    metrics.add("peak_rss_mb", median(rss), "MB", "ru_maxrss, median over processes");
  } else {
    // Warm-up pass: fills lazily built pools and caches; its report is the
    // reference every later pass must reproduce, and is sanity-checked.
    Json report;
    check.pass(run_pass(plan, workers, &report), plan.instances.size());
    for (const std::string& problem : check_report(report)) check.fail(1, problem);
    report = Json();
    metrics = traced_run(args, *w, setup, workers, check, passes);
  }

  // ---- param_study's worker-count parity, once per run, outside timing.
  if (std::string_view(w->name) == "param_study") {
    const auto serial = qfc::sweep::run_sweep(plan, 1);
    check.attempt(plan.instances.size());
    if (fnv1a64(serial.json.dump(2)) != check.reference())
      check.fail(1, "report at 1 worker differs from the report at " + std::to_string(workers) +
                        " workers");
  }

  const bool correct = check.failed() == 0;
  const double failed_ratio =
      static_cast<double>(check.failed()) / static_cast<double>(check.attempted());
  metrics.print_table(args.trace ? "per-layer metrics (traced run)"
                                 : "end-to-end metrics (tracing off)");
  std::printf("  %-40s %16.9g %-6s failed / attempted = %zu / %zu\n", "failed_ratio",
              failed_ratio, "ratio", check.failed(), check.attempted());
  for (const std::string& problem : check.problems())
    std::printf("WRONG OUTPUT: %s\n", problem.c_str());

  Json threads = Json::make_object();
  threads.set("sweep_workers", workers);
  threads.set("analysis_threads_request", qfc::detect::analysis_thread_request());
  threads.set("analysis_threads", qfc::detect::analysis_threads());
  threads.set("backend_threads_request", qfc::linalg::backend_thread_request());
  threads.set("backend_threads", qfc::linalg::backend_threads());
  threads.set("instance_threads", instance_threads);
  threads.set("thread_budget", budget);
  Json env = Json::make_object();
  env.set("workload", w->name);
  env.set("seed", std::to_string(args.seed));
  env.set("seconds", args.seconds);
  env.set("trace", args.trace);
  env.set("passes", passes);
  env.set("instances", plan.instances.size());
  env.set("report_hash", hex(check.reference()));
  env.set("nproc", cpus);
  env.set("hardware_concurrency", std::thread::hardware_concurrency());
  env.set("build_type", PERFBENCH_BUILD_TYPE);
  env.set("linalg_backend", qfc::linalg::to_string(qfc::linalg::default_backend()));
  env.set("simd", qfc::linalg::simd_enabled() ? "avx2" : "scalar");
  env.set("threads", std::move(threads));
  env.set("commit", args.commit);
  env.set("source_digest", args.source_digest);
  std::printf("report_hash %s\n", hex(check.reference()).c_str());
  std::printf("envelope %s\n", env.dump().c_str());

  Json result = Json::make_object();
  result.set("correct", correct);
  result.set("attempted", check.attempted());
  result.set("failed", check.failed());
  result.set("metrics", metrics.json());
  std::printf("%s\n", result.dump().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
