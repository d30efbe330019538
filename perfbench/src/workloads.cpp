#include "workloads.hpp"

#include <algorithm>
#include <bit>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/throughput.hpp"
#include "core/service_model.hpp"
#include "dataset/service_catalog.hpp"
#include "engine/engine.hpp"
#include "engine/store_runner.hpp"
#include "probes.hpp"
#include "store/store_session_source.hpp"
#include "store/trace_store.hpp"
#include "usecases/slicing.hpp"
#include "usecases/vran.hpp"

namespace mtd::perfbench {

namespace {

constexpr std::uint64_t kNetworkSeed = 2023;

/// Ring slots per worker (64 events each). The engine default, 8192, holds
/// a whole expand_ndjson repetition, so producers never feel backpressure
/// and peak memory tracks how far they happened to run ahead.
constexpr std::size_t kQueueSlots = 64;

struct Size {
  std::size_t num_bs;
  std::size_t days;
  double rate_scale;
};

std::uint64_t digest_doubles(std::uint64_t h, const std::vector<double>& v) {
  for (const double x : v) h = mix(h, std::bit_cast<std::uint64_t>(x));
  return h;
}

/// What one engine run returns to a workload.
struct EngineRun {
  EngineResult result;
  double wall_s = 0.0;
  std::vector<double> queue_depths;  // periodic snapshots, traced runs
};

/// Inputs, reference and the engine plumbing every workload shares.
class EngineWorkload : public Workload {
 public:
  EngineWorkload(Options options, Size size, std::string name)
      : options_(std::move(options)), size_(size), name_(std::move(name)) {}

  void setup() override {
    // The network is the bench network (bench/bench_common.hpp), fixed for
    // every seed: the seed draws the traffic, not the topology, so runs of
    // different seeds measure the same amount of work.
    NetworkConfig net;
    net.num_bs = size_.num_bs;
    Rng rng(kNetworkSeed);
    network_ = std::make_unique<Network>(Network::build(net, rng));
    trace_.num_days = size_.days;
    trace_.seed = options_.seed * 0x9e3779b97f4a7c15ULL + 1;
    trace_.rate_scale = size_.rate_scale;
    generator_ = std::make_unique<TraceGenerator>(*network_, trace_);
    reference_ = std::make_unique<SessionDigest>(reference_digest(*generator_));
    if (options_.corrupt_reference) reference_->per_bs[0] ^= 1;
  }

  [[nodiscard]] std::uint64_t output_digest() const override {
    return digest_.value_or(0);
  }

 protected:
  [[nodiscard]] EngineConfig engine_config(bool traced,
                                           std::size_t workers) const {
    EngineConfig config;
    config.num_workers = workers;
    config.queue_capacity = kQueueSlots;
    config.kernel = GeneratorKernel::kBatch;
    config.backpressure = BackpressurePolicy::kBlock;
    config.watchdog_timeout_s = 0.0;
    if (traced) config.telemetry_period_s = 0.005;
    configure(config);
    return config;
  }

  /// Workload-specific engine settings (event kinds, expansion, marks).
  virtual void configure(EngineConfig& config) const { (void)config; }

  /// Runs the engine into `sink` under an "engine.run" span; `timed` is the
  /// outermost timing decorator of the sink chain (traced runs).
  EngineRun run_engine(EventSink& sink, const Rep& rep, int parent,
                       TimedSink* timed,
                       std::size_t workers = engine_workers(),
                       std::function<void(const EngineCheckpoint&)>
                           on_checkpoint = {}) const {
    EngineRun run;
    StreamEngine engine(*network_, trace_,
                        engine_config(rep.tracer != nullptr, workers));
    if (rep.tracer != nullptr) {
      engine.on_snapshot([&run](const TelemetrySnapshot& snapshot) {
        run.queue_depths.push_back(
            static_cast<double>(snapshot.queue_depth));
      });
    }
    if (on_checkpoint) engine.on_checkpoint(std::move(on_checkpoint));
    ScopedSpan span(rep.tracer, "engine.run", parent);
    if (timed != nullptr) timed->set_parent(span.id());
    const std::int64_t t0 = now_ns();
    run.result = engine.run(sink);
    run.wall_s = seconds_since(t0);
    return run;
  }

  /// Conservation identity, nothing dropped, rejected or discarded under
  /// kBlock, and a run that reached its horizon.
  void check_engine(const EngineRun& run, Checks& checks) const {
    const TelemetrySnapshot& t = run.result.telemetry;
    checks.expect(t.accounted_for(), name_ + ": conservation identity");
    bool lossless = true;
    for (const EventKindCounters& c : t.kinds) {
      lossless = lossless && c.dropped == 0 && c.sink_errors == 0 &&
                 c.discarded == 0;
    }
    checks.expect(lossless, name_ + ": events dropped under kBlock");
    checks.expect(run.result.checkpoint.complete(),
                  name_ + ": engine stopped before the horizon");
  }

  /// Per-BS minute/session digests equal the single-thread reference.
  void check_reference(const SessionDigest& got, Checks& checks,
                       const std::string& what) const {
    checks.expect(got.per_bs == reference_->per_bs &&
                      got.sessions == reference_->sessions &&
                      got.minutes == reference_->minutes,
                  name_ + ": " + what + " differs from the run_bs_day "
                  "reference");
  }

  /// Every repetition of one seed yields the same output.
  void record_digest(std::uint64_t digest, Checks& checks) {
    if (!digest_) digest_ = digest;
    checks.expect(*digest_ == digest,
                  name_ + ": output digest changed between repetitions");
  }

  [[nodiscard]] static std::uint64_t consumed(const EngineRun& run,
                                              EventKind kind) {
    return run.result.telemetry.of(kind).consumed;
  }
  [[nodiscard]] static std::uint64_t consumed_all(const EngineRun& run) {
    std::uint64_t n = 0;
    for (const EventKindCounters& c : run.result.telemetry.kinds) {
      n += c.consumed;
    }
    return n;
  }

  /// End-to-end throughput of one engine run.
  static void engine_rates(const EngineRun& run, Values& v) {
    v["sessions_per_s"] =
        static_cast<double>(consumed(run, EventKind::kSession)) / run.wall_s;
    v["events_per_s"] = static_cast<double>(consumed_all(run)) / run.wall_s;
  }

  /// Engine-layer values of a traced run; `sink_busy_s` is the busy time
  /// of the outermost sink decorator.
  static void engine_layer(const EngineRun& run, double sink_busy_s,
                           Values& v) {
    const TelemetrySnapshot& t = run.result.telemetry;
    v["engine.producer_stall_s"] = t.producer_stall_seconds;
    v["engine.queue_depth.p50"] = percentile(run.queue_depths, 0.5);
    v["engine.queue_depth.max"] = percentile(run.queue_depths, 1.0);
    v["engine.consumer.outside_sink_s"] = run.wall_s - sink_busy_s;
    for (std::size_t k = 0; k < kNumEventKinds; ++k) {
      v[std::string("engine.events.") + to_string(static_cast<EventKind>(k))] =
          static_cast<double>(t.kinds[k].consumed);
    }
  }

  /// busy_s and ns_per_event of one sink decorator; busy is its self
  /// time, without the decorated sinks nested inside it.
  static void sink_layer(const Tracer& tracer, const std::string& sink,
                         std::uint64_t events, Values& v) {
    const double busy = tracer.self_busy_s("events.sink." + sink);
    v["events.sink." + sink + ".busy_s"] = busy;
    v["events.sink." + sink + ".ns_per_event"] =
        events > 0 ? busy * 1e9 / static_cast<double>(events) : 0.0;
  }

  Options options_;
  Size size_;
  std::string name_;
  std::unique_ptr<Network> network_;
  TraceConfig trace_;
  std::unique_ptr<TraceGenerator> generator_;
  std::unique_ptr<SessionDigest> reference_;
  std::optional<std::uint64_t> digest_;
};

// --- stream_sessions --------------------------------------------------------

/// Full-rate minute + session replay into an in-process digest sink: the
/// generation kernel, ring transfer and consumer dispatch do all the work.
class StreamSessions final : public EngineWorkload {
 public:
  explicit StreamSessions(const Options& options)
      : EngineWorkload(options,
                       options.tiny ? Size{10, 1, 0.5} : Size{100, 2, 1.0},
                       "stream_sessions") {}

  Values run(const Rep& rep) override {
    Values v;
    Tracer* tracer = rep.tracer;
    const std::size_t services = service_catalog().size();
    DigestTap tap(network_->size(), services);
    std::optional<TimedSink> timed;
    if (tracer != nullptr) timed.emplace(tap, *tracer, "events.sink.digest");
    EventSink& sink = timed ? static_cast<EventSink&>(*timed) : tap;

    const std::int64_t t0 = now_ns();
    EngineRun run;
    {
      ScopedSpan ingest(tracer, "ingest", rep.root);
      run = run_engine(sink, rep, ingest.id(), timed ? &*timed : nullptr);
      if (timed) timed->set_parent(ingest.id());
      sink.close();
    }
    const std::int64_t t1 = now_ns();
    // The result tables, from the tap's counters: Table 1's per-service
    // session shares and Fig. 3's per-decile arrival profile over the day.
    std::vector<double> table;
    {
      ScopedSpan analyze(tracer, "analyze", rep.root);
      table = result_tables(tap);
    }
    const std::int64_t t2 = now_ns();

    engine_rates(run, v);
    v["ingest_s"] = static_cast<double>(t1 - t0) * 1e-9;
    v["analyze_s"] = static_cast<double>(t2 - t1) * 1e-9;
    v["pipeline_s"] = static_cast<double>(t2 - t0) * 1e-9;
    // Nothing is persisted: the bytes per event this workload moves are
    // the ring slots.
    v["store_bytes_per_event"] = static_cast<double>(sizeof(StreamEvent));

    Checks& checks = *rep.checks;
    // The checks run inside the repetition but off the timed path.
    const ScopedSpan checking(tracer, "perfbench.checks", rep.root);
    check_engine(run, checks);
    check_reference(tap.sessions(), checks, "engine stream");
    record_digest(digest_doubles(tap.output_digest(), table), checks);

    if (tracer != nullptr) {
      const double busy = tracer->busy_s("events.sink.digest");
      engine_layer(run, busy, v);
      sink_layer(*tracer, "digest", consumed_all(run), v);
    }
    return v;
  }

  /// Table 1 session shares, then for every load decile the mean arrivals
  /// per BS-minute over the day, normalized to the decile's peak minute.
  [[nodiscard]] std::vector<double> result_tables(const DigestTap& tap) const {
    const std::vector<std::uint64_t>& sessions = tap.service_sessions();
    std::uint64_t total = 0;
    for (const std::uint64_t n : sessions) total += n;
    std::vector<double> table;
    for (const std::uint64_t n : sessions) {
      table.push_back(static_cast<double>(n) / static_cast<double>(total));
    }
    std::vector<double> profile(kNumDeciles * kMinutesPerDay, 0.0);
    std::vector<double> members(kNumDeciles, 0.0);
    for (std::size_t b = 0; b < network_->size(); ++b) {
      const std::size_t d = (*network_)[b].decile;
      members[d] += 1.0;
      for (std::size_t m = 0; m < kMinutesPerDay; ++m) {
        profile[d * kMinutesPerDay + m] += static_cast<double>(
            tap.arrivals()[b * kMinutesPerDay + m]);
      }
    }
    for (std::size_t d = 0; d < kNumDeciles; ++d) {
      double peak = 0.0;
      for (std::size_t m = 0; m < kMinutesPerDay; ++m) {
        double& cell = profile[d * kMinutesPerDay + m];
        if (members[d] > 0.0) cell /= members[d];
        peak = std::max(peak, cell);
      }
      for (std::size_t m = 0; m < kMinutesPerDay; ++m) {
        table.push_back(peak > 0.0 ? profile[d * kMinutesPerDay + m] / peak
                                   : 0.0);
      }
    }
    return table;
  }

  /// Single-thread and one-worker baselines, plus one traced repetition
  /// of expand_ndjson for the layers this workload does not run.
  Values traced_once(Checks& checks) override;
};

// --- expand_ndjson ----------------------------------------------------------

/// Every session expanded into segments and packets, fanned out to CSV,
/// binary (segment + packet only) and NDJSON files: per-event dispatch and
/// serialization dominate.
class ExpandNdjson final : public EngineWorkload {
 public:
  explicit ExpandNdjson(const Options& options)
      : EngineWorkload(options,
                       options.tiny ? Size{10, 1, 0.01} : Size{100, 1, 0.01},
                       "expand_ndjson") {}

  void configure(EngineConfig& config) const override {
    config.event_kinds = EventKindMask::all();
    config.packet.max_packets = 64;
    config.sink_error_policy = SinkErrorPolicy::kDegrade;
  }

  Values run(const Rep& rep) override {
    Values v;
    Tracer* tracer = rep.tracer;
    const ScratchDir dir(options_.scratch_root, name_, rep.index);
    const std::string csv_path = dir.file("sessions.csv");
    const std::string bin_path = dir.file("events.bin");
    const std::string ndjson_path = dir.file("events.ndjson");

    // The examples/event_stream.cpp fan-out, with the digest tap in front.
    // Traced, each branch, the fan-out and the tap get a timing decorator,
    // nested as their calls are: tap > fanout > csv | binary | ndjson.
    SessionCsvEventSink csv(*network_, csv_path);
    BinaryEventWriter binary(bin_path);
    FilterSink expansion_only(
        binary,
        EventKindMask{}.set(EventKind::kSegment).set(EventKind::kPacket));
    NdjsonEventWriter ndjson(ndjson_path);
    std::vector<EventSink*> branches = {&csv, &expansion_only, &ndjson};
    std::vector<std::unique_ptr<TimedSink>> timed_branches;
    if (tracer != nullptr) {
      const char* names[] = {"events.sink.csv", "events.sink.binary",
                             "events.sink.ndjson"};
      for (std::size_t i = 0; i < branches.size(); ++i) {
        timed_branches.push_back(
            std::make_unique<TimedSink>(*branches[i], *tracer, names[i]));
        branches[i] = timed_branches.back().get();
      }
    }
    FanOutSink fan(branches, SinkErrorPolicy::kDegrade);
    std::optional<TimedSink> timed_fan;
    if (tracer != nullptr) {
      timed_fan.emplace(fan, *tracer, "events.sink.fanout");
      for (const auto& branch : timed_branches) {
        branch->set_enclosing(&*timed_fan);
      }
    }
    DigestTap tap(network_->size(), service_catalog().size(),
                  timed_fan ? static_cast<EventSink*>(&*timed_fan) : &fan);
    std::optional<TimedSink> timed_tap;
    if (tracer != nullptr) {
      timed_tap.emplace(tap, *tracer, "events.sink.digest");
      timed_fan->set_enclosing(&*timed_tap);
    }
    EventSink& head = timed_tap ? static_cast<EventSink&>(*timed_tap) : tap;

    const std::int64_t t0 = now_ns();
    EngineRun run;
    {
      ScopedSpan ingest(tracer, "ingest", rep.root);
      run = run_engine(head, rep, ingest.id(),
                       timed_tap ? &*timed_tap : nullptr);
      if (timed_tap) timed_tap->set_parent(ingest.id());
      head.close();
    }
    const std::int64_t t1 = now_ns();
    // Read the binary log back: the consumer side of the wire format.
    // Per-BS digests: the file interleaves BSs in consumer order, which
    // varies from run to run; each BS's own order does not.
    std::uint64_t reread = 0;
    std::vector<std::uint64_t> reread_digest(network_->size(), kDigestSeed);
    {
      ScopedSpan analyze(tracer, "analyze", rep.root);
      BinaryEventReader reader(bin_path);
      StreamEvent event;
      while (reader.next(event)) {
        std::uint64_t& h = reread_digest[event.key.bs];
        h = mix(h, event.key.seq);
        ++reread;
      }
    }
    const std::int64_t t2 = now_ns();

    const std::uint64_t events = consumed_all(run);
    const std::uint64_t csv_bytes = file_bytes(csv_path);
    const std::uint64_t bin_bytes = file_bytes(bin_path);
    const std::uint64_t ndjson_bytes = file_bytes(ndjson_path);
    engine_rates(run, v);
    v["ingest_s"] = static_cast<double>(t1 - t0) * 1e-9;
    v["analyze_s"] = static_cast<double>(t2 - t1) * 1e-9;
    v["pipeline_s"] = static_cast<double>(t2 - t0) * 1e-9;
    v["store_bytes_per_event"] =
        static_cast<double>(csv_bytes + bin_bytes + ndjson_bytes) /
        static_cast<double>(events);

    Checks& checks = *rep.checks;
    const std::uint64_t sessions = consumed(run, EventKind::kSession);
    const std::uint64_t expansion = consumed(run, EventKind::kSegment) +
                                    consumed(run, EventKind::kPacket);
    // The checks run inside the repetition but off the timed path.
    const ScopedSpan checking(tracer, "perfbench.checks", rep.root);
    check_engine(run, checks);
    check_reference(tap.sessions(), checks, "engine stream");
    checks.expect(reread == expansion && binary.events_written() == expansion,
                  name_ + ": binary re-read count " + std::to_string(reread) +
                      " != segment+packet events " +
                      std::to_string(expansion));
    checks.expect(ndjson.events_written() == events,
                  name_ + ": NDJSON lines != events consumed");
    checks.expect(csv.writer().sessions_written() == sessions,
                  name_ + ": CSV rows != sessions consumed");
    bool branches_clean = true;
    for (std::size_t i = 0; i < fan.num_branches(); ++i) {
      branches_clean = branches_clean && fan.branch_errors(i) == 0;
    }
    checks.expect(branches_clean, name_ + ": a fan-out branch failed");
    record_digest(mix(tap.output_digest(), fold(reread_digest)), checks);

    if (tracer != nullptr) {
      engine_layer(run, tracer->busy_s("events.sink.digest"), v);
      sink_layer(*tracer, "digest", events, v);
      sink_layer(*tracer, "fanout", events, v);
      sink_layer(*tracer, "csv", csv.writer().sessions_written(), v);
      sink_layer(*tracer, "binary", binary.events_written(), v);
      sink_layer(*tracer, "ndjson", ndjson.events_written(), v);
      v["events.bytes_per_event.csv"] =
          static_cast<double>(csv_bytes) /
          static_cast<double>(csv.writer().sessions_written());
      v["events.bytes_per_event.binary"] =
          static_cast<double>(bin_bytes) /
          static_cast<double>(binary.events_written());
      v["events.bytes_per_event.ndjson"] =
          static_cast<double>(ndjson_bytes) /
          static_cast<double>(ndjson.events_written());
      v["mobility.segments_per_session"] =
          static_cast<double>(consumed(run, EventKind::kSegment)) /
          static_cast<double>(sessions);
      v["packet.packets_per_session"] =
          static_cast<double>(consumed(run, EventKind::kPacket)) /
          static_cast<double>(sessions);
    }
    return v;
  }
};

// --- stream_sessions, traced baselines --------------------------------------

Values StreamSessions::traced_once(Checks& checks) {
  Values v;
  // The generation kernel alone: one thread, no rings, no consumer.
  const std::int64_t t0 = now_ns();
  const SessionDigest generated = reference_digest(*generator_);
  const double busy = seconds_since(t0);
  check_reference(generated, checks, "single-thread generation");
  v["dataset.generate.busy_s"] = busy;
  v["dataset.generate.sessions_per_s"] =
      static_cast<double>(generated.sessions) / busy;

  // The same engine with one worker: the scaling baseline.
  DigestTap tap(network_->size(), service_catalog().size());
  const Rep untraced{0, nullptr, -1, &checks};
  const EngineRun run = run_engine(tap, untraced, -1, nullptr, 1);
  check_engine(run, checks);
  check_reference(tap.sessions(), checks, "one-worker engine stream");
  v["engine.one_worker.sessions_per_s"] =
      static_cast<double>(consumed(run, EventKind::kSession)) / run.wall_s;

  // Segment and packet expansion and the file writers (mobility, packet,
  // and the CSV, binary and NDJSON sinks): one traced expand_ndjson
  // repetition. expand_ndjson is not a workload of BENCHMARK.json: bound
  // by one consumer thread, its speed follows the host too closely
  // (perfbench/README.md, "Steadiness and bounds").
  ExpandNdjson expansion(options_);
  expansion.setup();
  Tracer tracer;
  const Rep rep{0, &tracer, tracer.open("rep", -1), &checks};
  const Values expanded = expansion.run(rep);
  tracer.close(rep.root);
  std::string why;
  checks.expect(tracer.well_formed(why),
                "expansion trace not well formed: " + why);
  for (const auto& [name, value] : expanded) {
    for (const char* layer :
         {"engine.events.segment", "engine.events.packet",
          "events.sink.fanout.", "events.sink.csv.", "events.sink.binary.",
          "events.sink.ndjson.", "events.bytes_per_event.", "mobility.",
          "packet."}) {
      if (name.starts_with(layer)) v[name] = value;
    }
  }
  return v;
}

// --- persist_analyze --------------------------------------------------------

/// The north-star pipeline: the engine into the trace store with hourly
/// commits and periodic compaction, then reopen the store and run model
/// fitting, slicing, vRAN and throughput through StoreSessionSource.
class PersistAnalyze final : public EngineWorkload {
 public:
  explicit PersistAnalyze(const Options& options)
      : EngineWorkload(options,
                       options.tiny ? Size{10, 2, 1.0} : Size{40, 2, 0.5},
                       "persist_analyze") {}

  void configure(EngineConfig& config) const override {
    config.checkpoint_interval_minutes = kCommitEveryMinutes;
  }

  Values run(const Rep& rep) override {
    Values v;
    Tracer* tracer = rep.tracer;
    Checks& checks = *rep.checks;
    const ScratchDir dir(options_.scratch_root, name_, rep.index);
    const std::string path = dir.file("trace.store");

    const std::int64_t t0 = now_ns();
    EngineRun run;
    {
      ScopedSpan ingest(tracer, "ingest", rep.root);
      run = tracer != nullptr ? ingest_in_stages(path, rep, ingest.id(), v)
                              : ingest_with_runner(path);
    }
    const std::int64_t t1 = now_ns();

    std::uint64_t figures = 0;
    std::optional<store::TraceStore> opened;
    SourceStats stats;
    std::uint64_t replayed = 0;
    SessionDigest replay_digest(network_->size());
    {
      ScopedSpan analyze(tracer, "analyze", rep.root);
      {
        ScopedSpan open(tracer, "store.open", analyze.id());
        const std::int64_t t_open = now_ns();
        opened.emplace(path);
        v["store.open_s"] = seconds_since(t_open);
      }
      store::StoreSessionSource store_source(*opened);
      ObservedSource source(store_source, network_->size(), tracer);
      figures = analyze_source(source, tracer, analyze.id());
      stats = source.stats();
      replayed = source.first_replay_events();
      replay_digest = source.replay_digest();
    }
    const std::int64_t t2 = now_ns();

    const store::StoreManifest& manifest = opened->manifest();
    engine_rates(run, v);
    v["ingest_s"] = static_cast<double>(t1 - t0) * 1e-9;
    v["analyze_s"] = static_cast<double>(t2 - t1) * 1e-9;
    v["pipeline_s"] = static_cast<double>(t2 - t0) * 1e-9;
    v["store_bytes_per_event"] =
        static_cast<double>(manifest.committed_bytes()) /
        static_cast<double>(manifest.events);

    // The checks run inside the repetition but off the timed path.
    const ScopedSpan checking(tracer, "perfbench.checks", rep.root);
    check_engine(run, checks);
    check_reference(replay_digest, checks, "store replay");
    const std::uint64_t ingested = consumed_all(run);
    checks.expect(replayed == ingested && manifest.events == ingested,
                  name_ + ": store holds " + std::to_string(manifest.events) +
                      " events, replay gave " + std::to_string(replayed) +
                      ", engine delivered " + std::to_string(ingested));
    const store::StoreVerifyReport report = opened->verify();
    checks.expect(report.events == manifest.events,
                  name_ + ": verify() recounted a different event total");
    record_digest(mix(fold(replay_digest.per_bs), figures), checks);

    if (tracer != nullptr) {
      v["store.dead_pages"] = static_cast<double>(manifest.dead_pages);
      v["store.pages_committed"] =
          static_cast<double>(manifest.committed_pages);
      v["store.replay.busy_s"] = tracer->busy_s("store.replay");
      v["store.replay.events_per_s"] =
          static_cast<double>(stats.replay_events) /
          tracer->busy_s("store.replay");
      v["store.scan.busy_s"] = tracer->busy_s("store.scan");
      v["store.scan.p50_us"] = percentile(stats.scan_us, 0.5);
      v["store.scan.pages_read"] = static_cast<double>(stats.scan_pages_read);
      v["store.scan.leaves_skipped_fence"] =
          static_cast<double>(stats.scan_leaves_skipped_fence);
      v["store.scan.leaves_skipped_bloom"] =
          static_cast<double>(stats.scan_leaves_skipped_bloom);
      v["store.scan.events_per_leaf_read"] =
          stats.scan_leaf_pages_read > 0
              ? static_cast<double>(stats.scan_events) /
                    static_cast<double>(stats.scan_leaf_pages_read)
              : 0.0;
      for (const char* span :
           {"events.dataset_from_source", "core.fit", "usecases.slicing",
            "usecases.vran", "analysis.throughput"}) {
        v[std::string(span) + ".busy_s"] = tracer->busy_s(span);
      }
    }
    return v;
  }

 private:
  static constexpr std::size_t kCommitEveryMinutes = 60;
  static constexpr std::size_t kCompactEveryDays = 1;

  /// Untraced ingest: run_engine_into_store, which commits at every engine
  /// checkpoint (hourly marks and day boundaries) and compacts daily.
  EngineRun ingest_with_runner(const std::string& path) {
    store::TraceStoreWriter writer = store::TraceStoreWriter::create(path);
    EngineRun run;
    StreamEngine engine(*network_, trace_, engine_config(false,
                                                         engine_workers()));
    const std::int64_t t0 = now_ns();
    run.result = run_engine_into_store(engine, writer,
                                       StoreRunPolicy{kCompactEveryDays});
    run.wall_s = seconds_since(t0);
    writer.close();
    return run;
  }

  /// Traced ingest, one stage at a time, because the runner commits where
  /// the benchmark cannot time it: the engine into a Collector (recording
  /// each checkpoint), then the writer fed the same events with commit()
  /// at the same checkpoints, the runner's compaction policy, and close().
  EngineRun ingest_in_stages(const std::string& path, const Rep& rep,
                             int parent, Values& v) {
    Tracer& tracer = *rep.tracer;
    struct Mark {
      std::uint64_t clock_minute;
      std::size_t next_day;
      std::string json;
    };
    std::vector<Mark> marks;
    MemorySessionSource::Collector collector;
    TimedSink timed_collector(collector, tracer, "events.sink.collector");
    EngineRun run = run_engine(
        timed_collector, rep, parent, &timed_collector, engine_workers(),
        [&marks](const EngineCheckpoint& checkpoint) {
          marks.push_back({checkpoint.clock_minute, checkpoint.next_day,
                           checkpoint.to_json().dump(2)});
        });
    marks.push_back({run.result.checkpoint.clock_minute,
                     run.result.checkpoint.next_day,
                     run.result.checkpoint.to_json().dump(2)});
    std::vector<StreamEvent> events = std::move(collector).take();
    v["events.sink.collector.busy_s"] =
        tracer.busy_s("events.sink.collector");
    v["events.sink.collector.ns_per_event"] =
        tracer.busy_s("events.sink.collector") * 1e9 /
        static_cast<double>(events.size());
    {
      ScopedSpan order(&tracer, "perfbench.order_by_minute", parent);
      std::stable_sort(events.begin(), events.end(),
                       [](const StreamEvent& a, const StreamEvent& b) {
                         return a.key.clock_minute() < b.key.clock_minute();
                       });
    }

    ScopedSpan ingest(&tracer, "store.ingest", parent);
    std::vector<double> commit_ms;
    std::uint64_t compact_pages = 0;
    {
      store::TraceStoreWriter writer = store::TraceStoreWriter::create(path);
      TimedSink timed_writer(writer, tracer, "events.sink.store");
      timed_writer.set_parent(ingest.id());
      std::size_t next = 0;
      std::int64_t compacted_through = 0;
      for (const Mark& mark : marks) {
        while (next < events.size() &&
               events[next].key.clock_minute() < mark.clock_minute) {
          timed_writer.on_event(events[next++]);
        }
        writer.set_engine_cursor(mark.next_day);
        writer.set_engine_checkpoint(mark.json);
        {
          ScopedSpan commit(&tracer, "store.commit", ingest.id());
          const std::int64_t t0 = now_ns();
          writer.commit();
          commit_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
        }
        if (static_cast<std::int64_t>(mark.next_day) - compacted_through >=
            static_cast<std::int64_t>(kCompactEveryDays)) {
          if (writer.manifest().segments.size() > 1) {
            ScopedSpan compact(&tracer, "store.compact", ingest.id());
            compact_pages += writer.compact().pages_written;
          }
          compacted_through = static_cast<std::int64_t>(mark.next_day);
        }
      }
      rep.checks->expect(next == events.size(),
                         name_ + ": events past the last checkpoint");
      ScopedSpan close(&tracer, "store.close", ingest.id());
      writer.close();
    }
    v["events.sink.store.busy_s"] = tracer.busy_s("events.sink.store");
    v["events.sink.store.ns_per_event"] =
        tracer.busy_s("events.sink.store") * 1e9 /
        static_cast<double>(events.size());
    v["store.ingest.busy_s"] = seconds_since(tracer.span(ingest.id()).start_ns);
    v["store.commit.busy_s"] = tracer.busy_s("store.commit");
    v["store.commit.count"] = static_cast<double>(commit_ms.size());
    v["store.commit.p50_ms"] = percentile(commit_ms, 0.5);
    v["store.commit.max_ms"] = percentile(commit_ms, 1.0);
    v["store.compact.busy_s"] = tracer.busy_s("store.compact");
    v["store.compact.pages_written"] = static_cast<double>(compact_pages);
    return run;
  }

  /// Fitting and the use cases, all through `source`; returns the digest
  /// of their figure tables.
  std::uint64_t analyze_source(ObservedSource& source, Tracer* tracer,
                               int parent) {
    std::uint64_t figures = kDigestSeed;
    const auto stage = [&](const char* name, const auto& body) {
      ScopedSpan span(tracer, name, parent);
      source.set_parent(span.id());
      body();
    };
    std::optional<MeasurementDataset> dataset;
    stage("events.dataset_from_source", [&] {
      dataset.emplace(dataset_from_source(source, *network_, size_.days));
    });
    std::optional<ModelRegistry> registry;
    stage("core.fit", [&] { registry.emplace(ModelRegistry::fit(*dataset)); });

    SlicingConfig slicing;
    slicing.num_antennas = std::min<std::size_t>(10, network_->size());
    slicing.eval_days = std::min<std::size_t>(2, size_.days);
    slicing.calibration_days = 1;
    slicing.seed = options_.seed + 7;
    stage("usecases.slicing", [&] {
      const SlicingResult result =
          run_slicing_from_source(source, *registry, slicing);
      for (const SliceStrategyResult& s : result.strategies) {
        figures = digest_doubles(
            figures, {s.mean_satisfied, s.stddev_satisfied,
                      s.sla_met_fraction, s.total_allocated_mbps});
      }
      figures = digest_doubles(figures, result.fig12_demand_mbps);
    });

    VranConfig vran;
    vran.num_edge_sites = 2;
    vran.rus_per_site = 5;
    vran.num_days = 1;
    vran.seed = options_.seed + 11;
    stage("usecases.vran", [&] {
      const VranResult result = run_vran_from_source(source, *registry, vran);
      for (const VranStrategyResult& s : result.strategies) {
        figures = digest_doubles(
            figures,
            {s.median_ape_active_ps, s.median_ape_power, s.mean_power_w});
      }
    });

    stage("analysis.throughput", [&] {
      for (std::size_t service = 0; service < kThroughputServices;
           ++service) {
        const ThroughputProfile profile =
            throughput_from_source(source, service);
        figures = digest_doubles(figures,
                                 {profile.median_mbps, profile.p95_mbps});
      }
    });
    return figures;
  }

  /// Throughput profiles of the services with the largest session shares.
  static constexpr std::size_t kThroughputServices = 3;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const Options& options) {
  if (options.workload == "stream_sessions") {
    return std::make_unique<StreamSessions>(options);
  }
  if (options.workload == "expand_ndjson") {
    return std::make_unique<ExpandNdjson>(options);
  }
  if (options.workload == "persist_analyze") {
    return std::make_unique<PersistAnalyze>(options);
  }
  return nullptr;
}

}  // namespace mtd::perfbench
