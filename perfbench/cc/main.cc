// Repository benchmark program: runs one workload for a fixed host-time
// budget, one fresh simulated world per repetition, and prints every
// metric by name with its unit. The last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}; the process exits 1
// when an output or determinism check fails.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <dir>]

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "obs/export.h"
#include "report.h"
#include "spans.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {
namespace {

/** Untraced repetitions in every run (plus one traced in the traced run). */
constexpr int kMinReps = 1;
/**
 * Set-up time is the median of dedicated set-up-only repetitions, run
 * back to back in the last share of the time budget: at least
 * kMinSetups, and up to kMaxSetups where set-up is cheap (micro- to
 * milliseconds, where one sample is noisy). Set-ups inside measured
 * repetitions follow a measured phase that left the caches cold, so
 * they are reported per repetition but kept out of the median.
 */
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 51;
constexpr double kSetupBudgetShare = 0.2;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out = ".bench_out";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v);
    } else if (k == "--trace") {
      a->trace = std::strcmp(v, "1") == 0;
    } else if (k == "--out") {
      a->out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload* w :
       {&TenantScale(), &QosMixed(), &GraphRemote(), &ClusterR3()}) {
    if (name == w->name) return w;
  }
  return nullptr;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

/** JSON array of `items`, each rendered by `to_json`. */
template <typename T, typename F>
std::string JsonList(const std::vector<T>& items, F to_json) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    out += (i ? "," : "") + to_json(items[i]);
  }
  return out + "]";
}

/** Appends the lines of `more` that `lines` does not hold yet. */
void AddUnique(std::vector<std::string>& lines,
               const std::vector<std::string>& more) {
  for (const std::string& l : more) {
    if (std::find(lines.begin(), lines.end(), l) == lines.end()) {
      lines.push_back(l);
    }
  }
}

/** Median across repetitions of each host metric, by name. */
void AddHostMedians(Report& out, const std::vector<const RepResult*>& reps) {
  std::map<std::string, std::vector<double>> values;
  std::vector<const Metric*> first;
  for (const RepResult* rep : reps) {
    for (const Metric& m : rep->host.metrics()) {
      if (values[m.name].empty()) first.push_back(&m);
      values[m.name].push_back(m.value);
    }
  }
  for (const Metric* m : first) {
    const std::vector<double>& v = values[m->name];
    std::string note = "median of " + std::to_string(v.size()) + " reps";
    if (!m->note.empty()) note += "; " + m->note;
    out.Add(m->name, *Median(v), m->unit, Kind::kHost, m->scope, note);
  }
}

/** Per-layer host metrics derived from one traced repetition's spans. */
Report SpanMetrics(const SpanRecorder& spans) {
  Report r;
  const auto total = spans.TotalSeconds();
  const auto self = spans.SelfSeconds();
  const auto counts = spans.Counts();
  for (const auto& [name, n] : counts) {
    r.Add("trace." + name + ".host_s", total.at(name), "s", Kind::kHost,
          Scope::kLayer, std::to_string(n) + " spans");
    r.Add("trace." + name + ".self_host_s", self.at(name), "s", Kind::kHost,
          Scope::kLayer, "span time not covered by child spans");
  }
  if (self.count("sim.run_until") != 0) {
    r.Add("sim.loop_self_host_s", self.at("sim.run_until"), "s", Kind::kHost,
          Scope::kLayer,
          "RunUntil slices minus the client calls made inside them");
  }
  // Host time inside the calls the benchmark hands to the program's
  // client layer: the IoSession/StorageBackend it wraps.
  for (const char* name : {"client.submit", "cluster.submit"}) {
    if (counts.count(name) == 0) continue;
    const double ns = total.at(name) * 1e9 / counts.at(name);
    const std::string note =
        "mean per call, base: " + std::to_string(counts.at(name)) + " calls";
    r.Add(std::string(name) + "_host_ns", ns, "ns", Kind::kHost,
          Scope::kLayer, note);
    if (std::strcmp(name, "cluster.submit") == 0) {
      r.Add("client.submit_host_ns", ns, "ns", Kind::kHost, Scope::kLayer,
            note + " (the session is a ClusterSession)");
    }
  }
  return r;
}

void PrintReport(const Report& r) {
  for (const Metric& m : r.metrics()) {
    std::printf("  %-34s %16.6g %-9s %-4s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.kind == Kind::kSim ? "sim" : "host",
                m.note.c_str());
  }
}

int Main(int argc, char** argv) {
  const double process_start = HostNow();
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds "
                 "<s> --trace <0|1> [--out <dir>]\n");
    return 2;
  }
  const Workload* w = FindWorkload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n", w->name,
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::fflush(stdout);

  std::vector<std::string> failures;
  std::vector<std::string> notes;
  const std::string inputs = w->inputs(args.seed);
  if (inputs == w->inputs(args.seed + 1)) {
    failures.push_back("seed " + std::to_string(args.seed + 1) +
                       " generates the same inputs as seed " +
                       std::to_string(args.seed));
  }

  // Measured repetitions, then set-up-only ones in the time left. In
  // the traced run they alternate untraced / traced, so both sides see
  // the same machine conditions.
  const double deadline = process_start + args.seconds;
  double measure_deadline = deadline;
  std::vector<RepResult> reps;
  std::vector<bool> traced;
  SpanRecorder last_spans;
  std::vector<double> setups;
  double rep_s = 0.0;
  // Start another repetition when at least half of it fits the budget.
  while (static_cast<int>(reps.size()) < kMinReps + (args.trace ? 1 : 0) ||
         HostNow() + rep_s / 2 < measure_deadline) {
    const double rep_start = HostNow();
    RepOptions opt;
    opt.seed = args.seed;
    opt.traced = args.trace && reps.size() % 2 == 1;
    SpanRecorder spans;
    opt.spans = opt.traced ? &spans : nullptr;
    reps.push_back(w->run(opt));
    traced.push_back(opt.traced);
    rep_s = HostNow() - rep_start;
    if (reps.size() == 1) {
      // Leave time for the set-ups, sized by this first (cold) one.
      measure_deadline -= std::min(kSetupBudgetShare * args.seconds,
                                   kMaxSetups * reps[0].setup_s);
    }
    if (opt.traced) last_spans = std::move(spans);
    AddUnique(failures, reps.back().check_failures);
    AddUnique(notes, reps.back().notes);
  }
  while (static_cast<int>(setups.size()) < kMinSetups ||
         (static_cast<int>(setups.size()) < kMaxSetups &&
          HostNow() < deadline)) {
    RepOptions opt;
    opt.seed = args.seed;
    opt.setup_only = true;
    setups.push_back(w->run(opt).setup_s);
  }

  // Determinism: every repetition, traced or not, must reproduce the
  // first one's simulated results byte for byte.
  const RepResult& first = reps.front();
  const std::string fingerprint = first.sim.SimFingerprint();
  for (size_t i = 1; i < reps.size(); ++i) {
    if (reps[i].sim.SimFingerprint() != fingerprint) {
      failures.push_back(std::string("repetition ") + std::to_string(i) +
                         (traced[i] ? " (traced)" : "") +
                         " changed the sim metrics of repetition 0");
    }
  }

  std::vector<const RepResult*> plain;
  std::vector<double> rates, ns_per_event, plain_measure, traced_measure;
  for (size_t i = 0; i < reps.size(); ++i) {
    (traced[i] ? traced_measure : plain_measure).push_back(reps[i].measure_s);
    if (traced[i]) continue;
    plain.push_back(&reps[i]);
    rates.push_back(Ratio(reps[i].measured_ios, reps[i].measure_s));
    const Metric* events = reps[i].sim.Find("sim.events");
    ns_per_event.push_back(
        Ratio(reps[i].measure_s * 1e9, events ? events->value : 0.0));
  }

  Report all;
  const std::string nreps = "median of " + std::to_string(plain.size()) +
                            " reps";
  all.Add("setup_s", *Median(setups), "s", Kind::kHost, Scope::kEndToEnd,
          "median of " + std::to_string(setups.size()) + " set-ups");
  all.Add("sim_io_per_host_s", *Median(rates), "I/O/s", Kind::kHost,
          Scope::kEndToEnd, nreps + ", " +
              std::to_string(first.measured_ios) + " I/Os per rep");
  all.Add("peak_rss_mb", PeakRssMb(), "MB", Kind::kHost, Scope::kEndToEnd,
          "process peak");
  all.Append(first.sim);
  AddAbsentLayers(all);
  all.Add("sim.host_ns_per_event", *Median(ns_per_event), "ns", Kind::kHost,
          Scope::kLayer, nreps);
  AddHostMedians(all, plain);
  if (args.trace) {
    all.Append(reps[1].traced_sim);
    all.Append(SpanMetrics(last_spans));
    all.Add("trace.overhead_frac",
            *Median(traced_measure) / *Median(plain_measure) - 1.0,
            "fraction", Kind::kHost, Scope::kLayer,
            "measured-phase host time, traced vs untraced, " +
                std::to_string(traced_measure.size()) + "+" +
                std::to_string(plain_measure.size()) + " reps");
  }

  std::printf("workload %s: %zu repetitions (%zu traced), inputs: %s\n",
              w->name, reps.size(), traced_measure.size(), inputs.c_str());
  std::printf("end-to-end metrics:\n");
  Report e2e, layers;
  for (const Metric& m : all.metrics()) {
    (m.scope == Scope::kEndToEnd ? e2e : layers).Add(
        m.name, m.value, m.unit, m.kind, m.scope, m.note);
  }
  PrintReport(e2e);
  std::printf("per-layer metrics:\n");
  PrintReport(layers);
  for (const std::string& n : notes) std::printf("NOTE: %s\n", n.c_str());
  for (const std::string& f : failures) std::printf("CHECK FAILED: %s\n", f.c_str());

  const std::string stem = args.out + "/" + w->name + "_s" +
                           std::to_string(args.seed) + "_t" +
                           (args.trace ? "1" : "0");
  std::string doc = "{\"workload\":" + JsonString(w->name) +
                    ",\"seed\":" + std::to_string(args.seed) +
                    ",\"trace\":" + (args.trace ? "true" : "false") +
                    ",\"inputs\":" + JsonString(inputs) +
                    ",\"repetitions\":[";
  for (size_t i = 0; i < reps.size(); ++i) {
    doc += std::string(i ? "," : "") + "{\"traced\":" +
           (traced[i] ? "true" : "false") +
           ",\"setup_s\":" + JsonNumber(reps[i].setup_s) +
           ",\"measure_s\":" + JsonNumber(reps[i].measure_s) +
           ",\"measured_ios\":" + std::to_string(reps[i].measured_ios) + "}";
  }
  doc += "],\"setups_s\":" + JsonList(setups, JsonNumber) +
         ",\"check_failures\":" + JsonList(failures, JsonString) +
         ",\"notes\":" + JsonList(notes, JsonString);
  doc += ",\"metrics\":" + all.ToJson() + "}\n";
  if (!reflex::obs::WriteFile(stem + ".json", doc)) {
    std::fprintf(stderr, "perfbench: cannot write %s.json\n", stem.c_str());
  }
  // One span file per workload (the latest traced run): a traced
  // graph_remote repetition alone holds ~700K spans.
  const std::string span_file =
      args.out + "/" + w->name + "_spans.csv";
  if (args.trace && !last_spans.WriteCsv(span_file)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", span_file.c_str());
  }

  const bool correct = failures.empty();
  std::string line = std::string("{\"correct\":") +
                     (correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(first.attempted) +
                     ",\"failed\":" + std::to_string(first.failed) +
                     ",\"metrics\":{";
  bool comma = false;
  for (const Metric& m : (args.trace ? layers : e2e).metrics()) {
    line += (comma ? "," : "") + JsonString(m.name) +
            ":{\"value\":" + JsonNumber(m.value) +
            ",\"unit\":" + JsonString(m.unit) + "}";
    comma = true;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
