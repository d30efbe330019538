// Pipeline benchmark: the command-line entry point.
//
//   mtd_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--tiny] [--corrupt-reference] [--scratch <dir>]
//                 [--trace-file <path>]
//
// Sets the workload up three times (setup_s is the median), runs one
// warm-up repetition, then repeats the workload until --seconds have
// passed and reports the median of every value over the repetitions. With
// --trace 1 the first half of the time runs untraced and the second half
// traced, and the per-layer values are reported instead of the end-to-end
// ones. Every repetition is followed by its output checks. The last line
// of stdout is the result object; the line before it carries the host and
// build identity, the scratch filesystem and the output digest. Exits 1
// when an output check failed, 2 on a usage error.
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

using namespace mtd::perfbench;

struct Metric {
  const char* name;
  const char* unit;
};

// Must list exactly the end_to_end and per_layer entries of
// BENCHMARK.json (run.py and smoke_test.py compare them).
constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},
    {"sessions_per_s", "sessions/s"},
    {"events_per_s", "events/s"},
    {"ingest_s", "s"},
    {"analyze_s", "s"},
    {"pipeline_s", "s"},
    {"store_bytes_per_event", "bytes/event"},
    {"peak_rss_mb", "MB"},
};

constexpr Metric kPerLayer[] = {
    {"dataset.generate.busy_s", "s"},
    {"dataset.generate.sessions_per_s", "sessions/s"},
    {"engine.producer_stall_s", "s"},
    {"engine.queue_depth.p50", "batches"},
    {"engine.queue_depth.max", "batches"},
    {"engine.consumer.outside_sink_s", "s"},
    {"engine.one_worker.sessions_per_s", "sessions/s"},
    {"engine.events.minute", "count"},
    {"engine.events.session", "count"},
    {"engine.events.segment", "count"},
    {"engine.events.packet", "count"},
    {"events.sink.digest.busy_s", "s"},
    {"events.sink.digest.ns_per_event", "ns"},
    {"events.sink.fanout.busy_s", "s"},
    {"events.sink.fanout.ns_per_event", "ns"},
    {"events.sink.csv.busy_s", "s"},
    {"events.sink.csv.ns_per_event", "ns"},
    {"events.sink.binary.busy_s", "s"},
    {"events.sink.binary.ns_per_event", "ns"},
    {"events.sink.ndjson.busy_s", "s"},
    {"events.sink.ndjson.ns_per_event", "ns"},
    {"events.sink.collector.busy_s", "s"},
    {"events.sink.collector.ns_per_event", "ns"},
    {"events.sink.store.busy_s", "s"},
    {"events.sink.store.ns_per_event", "ns"},
    {"events.bytes_per_event.csv", "bytes/event"},
    {"events.bytes_per_event.binary", "bytes/event"},
    {"events.bytes_per_event.ndjson", "bytes/event"},
    {"mobility.segments_per_session", "count"},
    {"packet.packets_per_session", "count"},
    {"store.ingest.busy_s", "s"},
    {"store.commit.busy_s", "s"},
    {"store.commit.count", "count"},
    {"store.commit.p50_ms", "ms"},
    {"store.commit.max_ms", "ms"},
    {"store.compact.busy_s", "s"},
    {"store.compact.pages_written", "pages"},
    {"store.dead_pages", "pages"},
    {"store.pages_committed", "pages"},
    {"store.open_s", "s"},
    {"store.replay.busy_s", "s"},
    {"store.replay.events_per_s", "events/s"},
    {"store.scan.busy_s", "s"},
    {"store.scan.p50_us", "us"},
    {"store.scan.pages_read", "pages"},
    {"store.scan.leaves_skipped_fence", "count"},
    {"store.scan.leaves_skipped_bloom", "count"},
    {"store.scan.events_per_leaf_read", "events"},
    {"events.dataset_from_source.busy_s", "s"},
    {"core.fit.busy_s", "s"},
    {"usecases.slicing.busy_s", "s"},
    {"usecases.vran.busy_s", "s"},
    {"analysis.throughput.busy_s", "s"},
    {"unattributed_s", "s"},
    {"trace_overhead", "ratio"},
};

constexpr int kSetupRounds = 3;
constexpr std::size_t kMinReps = 3;
// Traced runs only feed the per-layer values, which carry no bound; two
// repetitions per half keep a traced run near the length of an untraced one.
constexpr std::size_t kMinTracedReps = 2;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "mtd_perfbench: " << why
            << "\nusage: mtd_perfbench --workload <stream_sessions|"
               "expand_ndjson|persist_analyze> --seed <n> --seconds <s> "
               "--trace <0|1> [--tiny] [--corrupt-reference] "
               "[--scratch <dir>] [--trace-file <path>]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        o.workload = value();
      } else if (arg == "--seed") {
        o.seed = std::stoull(value());
        have_seed = true;
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value());
      } else if (arg == "--trace") {
        const std::string t = value();
        if (t != "0" && t != "1") usage("--trace takes 0 or 1");
        o.trace = t == "1";
      } else if (arg == "--tiny") {
        o.tiny = true;
      } else if (arg == "--corrupt-reference") {
        o.corrupt_reference = true;
      } else if (arg == "--scratch") {
        o.scratch_root = value();
      } else if (arg == "--trace-file") {
        o.trace_file = value();
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!have_seed) usage("--seed is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  std::ostringstream out;
  out << std::setprecision(17) << v;
  return out.str();
}

std::string metrics_json(const Metric* begin, const Metric* end,
                         const Values& values) {
  std::ostringstream out;
  out << "{";
  for (const Metric* m = begin; m != end; ++m) {
    const auto it = values.find(m->name);
    out << (m == begin ? "" : ", ") << "\"" << m->name
        << "\": {\"value\": " << number(it != values.end() ? it->second : 0.0)
        << ", \"unit\": \"" << m->unit << "\"}";
  }
  out << "}";
  return out.str();
}

/// Median of every key over the repetitions.
Values medians(const std::vector<Values>& reps) {
  std::map<std::string, std::vector<double>> columns;
  for (const Values& rep : reps) {
    for (const auto& [name, v] : rep) columns[name].push_back(v);
  }
  Values out;
  for (auto& [name, column] : columns) out[name] = median(column);
  return out;
}

/// Repeats `workload` until `seconds` have passed and `min_reps` ran.
std::vector<Values> repeat(Workload& workload, double seconds,
                           std::size_t min_reps, bool traced, int& rep_index,
                           Checks& checks, std::string& last_trace) {
  std::vector<Values> reps;
  const std::int64_t start = now_ns();
  while (reps.size() < min_reps || seconds_since(start) < seconds) {
    Tracer tracer;
    Rep rep{rep_index++, nullptr, -1, &checks};
    if (traced) {
      rep.tracer = &tracer;
      rep.root = tracer.open("rep", -1);
    }
    Values v = workload.run(rep);
    if (traced) {
      tracer.close(rep.root);
      std::string why;
      checks.expect(tracer.well_formed(why), "trace not well formed: " + why);
      v["unattributed_s"] = tracer.self_s(rep.root);
      last_trace = tracer.to_json();
    }
    reps.push_back(std::move(v));
  }
  return reps;
}

int run(const Options& options) {
  std::unique_ptr<Workload> workload = make_workload(options);
  if (!workload) usage("unknown workload " + options.workload);
  std::filesystem::create_directories(options.scratch_root);

  std::vector<double> setup_times;
  for (int i = 0; i < kSetupRounds; ++i) {
    const std::int64_t t0 = now_ns();
    workload->setup();
    setup_times.push_back(seconds_since(t0));
  }

  Checks checks;
  int rep_index = 0;
  std::string last_trace;
  // Warm-up: caches, allocator arenas and page cache settle; its checks
  // still count.
  (void)repeat(*workload, 0.0, 1, false, rep_index, checks, last_trace);

  const double untraced_s =
      options.trace ? options.seconds / 2 : options.seconds;
  const std::vector<Values> untraced =
      repeat(*workload, untraced_s, options.trace ? kMinTracedReps : kMinReps,
             false, rep_index, checks, last_trace);
  Values result = medians(untraced);
  result["setup_s"] = median(setup_times);
  std::size_t traced_reps = 0;
  if (options.trace) {
    const std::vector<Values> traced =
        repeat(*workload, options.seconds - untraced_s, kMinTracedReps, true,
               rep_index, checks, last_trace);
    traced_reps = traced.size();
    const double untraced_pipeline = result["pipeline_s"];
    result = medians(traced);
    result["trace_overhead"] = result["pipeline_s"] / untraced_pipeline;
    for (const auto& [name, v] : workload->traced_once(checks)) {
      result[name] = v;
    }
    if (!options.trace_file.empty()) {
      std::ofstream(options.trace_file) << last_trace;
    }
  }
  result["peak_rss_mb"] = peak_rss_mb();

  const double failed_ratio = static_cast<double>(checks.failed()) /
                              static_cast<double>(checks.attempted());
  std::cout << "{\"perfbench\": {\"workload\": \"" << options.workload
            << "\", \"seed\": " << options.seed
            << ", \"trace\": " << (options.trace ? 1 : 0)
            << ", \"identity\": " << identity_json()
            << ", \"scratch_fs\": \"" << filesystem_of(options.scratch_root)
            << "\", \"repetitions\": " << untraced.size()
            << ", \"traced_repetitions\": " << traced_reps
            << ", \"output_digest\": \"" << hex(workload->output_digest())
            << "\", \"failed_ratio\": " << number(failed_ratio) << "}}\n";
  const bool correct = checks.failed() == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << checks.attempted()
            << ", \"failed\": " << checks.failed() << ", \"metrics\": "
            << (options.trace
                    ? metrics_json(std::begin(kPerLayer), std::end(kPerLayer),
                                   result)
                    : metrics_json(std::begin(kEndToEnd), std::end(kEndToEnd),
                                   result))
            << "}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  try {
    return run(options);
  } catch (const std::exception& e) {
    std::cerr << "mtd_perfbench: " << e.what() << "\n";
    return 3;
  }
}
