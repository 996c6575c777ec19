// unidrive_perfbench — end-to-end benchmark of the UniDrive client.
//
// One user with two devices in a closed loop: each round the writer edits
// its folder, writer.sync() commits, then reader.sync() pulls, and the
// reader's folder is compared with the writer's byte for byte. The clients
// are the real core::UniDriveClient with the default ClientConfig; the
// benchmark sees them only through sync(), SyncReport.metrics, the client's
// own spans, a ProbeCloud under each simulated link, and direct calls into
// the public kernel, lock and metadata functions.
//
//   unidrive_perfbench --workload <name> --seed <n> --seconds <s>
//                      --trace <0|1> [--out <dir>]
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the same inputs
// twice, untraced then traced, each for half the time, prints the per-layer
// metrics of the traced pass and the difference between the two passes as
// tracing overhead, and writes every span to <out>. The last line of
// standard output is always one JSON object: {"correct", "attempted",
// "failed", "metrics"}. README.md documents every metric.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "chunker/cdc.h"
#include "chunker/segmenter.h"
#include "cloud/latent_cloud.h"
#include "cloud/memory_cloud.h"
#include "common/clock.h"
#include "core/client.h"
#include "core/local_fs.h"
#include "crypto/convergent.h"
#include "crypto/sha1.h"
#include "crypto/sha256.h"
#include "erasure/rs.h"
#include "lock/lock_manager.h"
#include "metadata/sharded_store.h"
#include "probe.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace unidrive::perfbench {
namespace {

constexpr int kSetups = 3;  // set-ups per untraced run; setup_s is their median
constexpr std::size_t kTailBeyond = 10;  // rounds a tail percentile must leave above it
constexpr double kMB = 1e6;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

struct Failure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

void check(bool ok, const std::string& what) {
  if (!ok) throw Failure(what);
}

void check(const Status& status, const std::string& what) {
  if (!status.is_ok()) throw Failure(what + ": " + status.to_string());
}

Options parse_options(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    check(i + 1 < argc, "missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(value);
      check(opt.seconds > 0, "--seconds must be positive");
    } else if (arg == "--trace") {
      check(value == "0" || value == "1", "--trace takes 0 or 1");
      opt.trace = value == "1";
    } else if (arg == "--out") {
      opt.out_dir = value;
    } else {
      throw Failure("unknown argument " + arg);
    }
  }
  check(have_workload, "--workload is required");
  (void)workload_spec(opt.workload);  // rejects unknown names
  return opt;
}

// ---------------------------------------------------------------------------
// Statistics

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// The highest order statistic with at least kTailBeyond samples above it;
// with fewer than kTailBeyond + 1 samples no such percentile exists and the
// maximum stands in (flagged by `exact` = false).
struct Tail {
  double value = 0;
  double percentile = 0;
  std::size_t samples = 0;
  bool exact = false;
};

Tail tail_of(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  t.exact = n > kTailBeyond;
  const std::size_t idx = t.exact ? n - kTailBeyond - 1 : n - 1;
  t.value = v[idx];
  t.percentile = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(n);
  return t;
}

// ---------------------------------------------------------------------------
// Folder helpers

void apply_ops(const RoundInput& in, core::LocalFs& fs, std::uint64_t* payload,
               std::vector<Bytes>* touched) {
  for (const FileOp& op : in.ops) {
    Bytes content;
    switch (op.kind) {
      case FileOp::Kind::kRemove:
        check(fs.remove(op.path), "remove " + op.path);
        continue;
      case FileOp::Kind::kWrite:
        content = op.data;
        break;
      case FileOp::Kind::kCopy: {
        auto source = fs.read(op.source);
        check(source.status(), "read " + op.source);
        content = std::move(source).take();
        break;
      }
    }
    check(fs.write(op.path, ByteSpan(content)), "write " + op.path);
    if (payload != nullptr) *payload += content.size();
    if (touched != nullptr) touched->push_back(std::move(content));
  }
}

// "" when both folders hold the same files with the same bytes.
std::string folder_diff(const core::LocalFs& a, const core::LocalFs& b) {
  const std::vector<std::string> fa = a.list_files();
  const std::vector<std::string> fb = b.list_files();
  if (fa != fb) {
    return "file lists differ (" + std::to_string(fa.size()) + " vs " +
           std::to_string(fb.size()) + " files)";
  }
  for (const std::string& path : fa) {
    auto ra = a.read(path);
    auto rb = b.read(path);
    if (!ra.is_ok() || !rb.is_ok()) return "unreadable " + path;
    if (ra.value() != rb.value()) return "content differs: " + path;
  }
  return "";
}

std::uint64_t folder_bytes(const core::LocalFs& fs) {
  std::uint64_t n = 0;
  for (const std::string& path : fs.list_files()) {
    auto size = fs.size(path);
    if (size.is_ok()) n += size.value();
  }
  return n;
}

double peak_rss_bytes() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) * 1024.0;  // reported in kB
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// The system under test: five in-memory clouds, two devices.

cloud::LinkProfile profile_of(const LinkSpec& link) {
  cloud::LinkProfile p;
  p.request_latency_sec = link.latency_s;
  p.up_bytes_per_sec = link.bytes_per_s;
  p.down_bytes_per_sec = link.bytes_per_s;
  return p;
}

bool has_link(const LinkSpec& link) {
  return link.latency_s > 0 || link.bytes_per_s > 0;
}

core::ClientConfig client_config(const WorkloadSpec& spec, std::string device) {
  core::ClientConfig cfg;
  cfg.device = std::move(device);
  cfg.theta = spec.theta;
  return cfg;
}

struct Rig {
  WorkloadSpec spec;
  std::vector<std::shared_ptr<cloud::MemoryCloud>> mem;
  std::shared_ptr<ProbeLog> log;
  // The workload's links over the raw clouds, without probes: standalone
  // lock/metadata timings run here so they never mix into the clients'
  // request counts.
  cloud::MultiCloud standalone;
  std::shared_ptr<core::MemoryLocalFs> writer_fs;
  std::shared_ptr<core::MemoryLocalFs> reader_fs;
  std::unique_ptr<core::UniDriveClient> writer;
  std::unique_ptr<core::UniDriveClient> reader;
};

// Each device gets its own links (its own LinkState) over shared probes'
// clouds: Latent(Probe(Memory)), or Probe(Memory) when the link is free.
cloud::MultiCloud device_view(const Rig& rig) {
  cloud::MultiCloud view;
  for (std::size_t i = 0; i < kClouds; ++i) {
    cloud::CloudPtr c = std::make_shared<ProbeCloud>(rig.mem[i], rig.log);
    if (has_link(rig.spec.links[i])) {
      c = std::make_shared<cloud::LatentCloud>(c, profile_of(rig.spec.links[i]));
    }
    view.push_back(std::move(c));
  }
  return view;
}

// Builds clouds and both devices, pre-populates the folder through a third
// device over the raw (latency-free) clouds, and lets writer and reader
// pull it over their own links.
std::unique_ptr<Rig> build_rig(const WorkloadSpec& spec,
                               const RoundInput& population,
                               std::uint64_t seed, bool record) {
  auto rig = std::make_unique<Rig>();
  rig->spec = spec;
  rig->log = std::make_shared<ProbeLog>(record);
  cloud::MultiCloud raw;
  for (std::size_t i = 0; i < kClouds; ++i) {
    rig->mem.push_back(std::make_shared<cloud::MemoryCloud>(
        static_cast<cloud::CloudId>(i), "cloud" + std::to_string(i)));
    raw.push_back(rig->mem[i]);
    rig->standalone.push_back(
        has_link(spec.links[i])
            ? cloud::CloudPtr(std::make_shared<cloud::LatentCloud>(
                  rig->mem[i], profile_of(spec.links[i])))
            : cloud::CloudPtr(rig->mem[i]));
  }

  auto seed_fs = std::make_shared<core::MemoryLocalFs>();
  apply_ops(population, *seed_fs, nullptr, nullptr);
  {
    core::UniDriveClient populator(raw, seed_fs, client_config(spec, "seeder"),
                                   RealClock::instance(), Rng(seed * 4 + 3));
    auto report = populator.sync();
    check(report.status(), "populate sync");
    check(report.value().committed, "populate did not commit");
  }

  rig->writer_fs = std::make_shared<core::MemoryLocalFs>();
  rig->reader_fs = std::make_shared<core::MemoryLocalFs>();
  rig->writer = std::make_unique<core::UniDriveClient>(
      device_view(*rig), rig->writer_fs, client_config(spec, "writer"),
      RealClock::instance(), Rng(seed * 4 + 1));
  rig->reader = std::make_unique<core::UniDriveClient>(
      device_view(*rig), rig->reader_fs, client_config(spec, "reader"),
      RealClock::instance(), Rng(seed * 4 + 2));
  for (core::UniDriveClient* device : {rig->writer.get(), rig->reader.get()}) {
    auto report = device->sync();
    check(report.status(), "initial pull");
    check(report.value().applied_cloud, "initial pull applied nothing");
  }
  check(folder_diff(*seed_fs, *rig->writer_fs).empty(), "writer set-up pull");
  check(folder_diff(*seed_fs, *rig->reader_fs).empty(), "reader set-up pull");
  return rig;
}

// ---------------------------------------------------------------------------
// Traced-run bookkeeping

struct SpanOut {
  std::string name;
  std::string track;  // "bench", "writer" or "reader"
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  double start = 0;
  double end = 0;
  std::string args;  // JSON object body, may be empty
};

class SpanSink {
 public:
  std::uint64_t add(std::string name, std::uint64_t parent, double start,
                    double end, std::string args = "") {
    const std::uint64_t id = next_id_++;
    spans_.push_back(SpanOut{std::move(name), "bench", id, parent, start, end,
                             std::move(args)});
    return id;
  }
  // Client spans keep their own ids, namespaced by track.
  void add_client(const std::string& track,
                  const std::vector<obs::SpanRecord>& records) {
    for (const obs::SpanRecord& r : records) {
      spans_.push_back(
          SpanOut{r.name, track, r.id, r.parent, r.start, r.end, ""});
    }
  }
  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  // Chrome trace-event JSON (chrome://tracing, Perfetto).
  void write(const std::string& path, double t0) const {
    std::ofstream out(path, std::ios::trunc);
    out << "{\"traceEvents\":[\n";
    bool first = true;
    for (const SpanOut& s : spans_) {
      if (!first) out << ",\n";
      first = false;
      char buf[160];
      std::snprintf(buf, sizeof buf, "\"ts\":%.3f,\"dur\":%.3f",
                    (s.start - t0) * 1e6, (s.end - s.start) * 1e6);
      out << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":\""
          << s.track << "\"," << buf << ",\"args\":{\"id\":" << s.id
          << ",\"parent\":" << s.parent;
      if (!s.args.empty()) out << "," << s.args;
      out << "}}";
    }
    out << "\n]}\n";
  }

 private:
  std::uint64_t next_id_ = 1;
  std::vector<SpanOut> spans_;
};

double span_sum(const std::vector<obs::SpanRecord>& spans,
                const std::string& name, std::size_t* count = nullptr) {
  double total = 0;
  std::size_t n = 0;
  for (const obs::SpanRecord& s : spans) {
    if (s.name == name) {
      total += s.duration();
      ++n;
    }
  }
  if (count != nullptr) *count = n;
  return total;
}

std::uint64_t counter_family(const obs::MetricsSnapshot& m,
                             const std::string& prefix,
                             const std::string& suffix) {
  std::uint64_t n = 0;
  for (const auto& [name, value] : m.counters) {
    if (name.size() >= prefix.size() + suffix.size() &&
        name.compare(0, prefix.size(), prefix) == 0 &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      n += value;
    }
  }
  return n;
}

// Requests in flight are inferred from the arrival time at the probe and
// the link profile: the probe sits below the latency layer, so everything
// but a download arrives at the end of its round trip.
std::pair<double, double> rpc_interval(const RpcRecord& r,
                                       const WorkloadSpec& spec) {
  const LinkSpec& link = spec.links[r.cloud % kClouds];
  const double xfer =
      link.bytes_per_s > 0 ? static_cast<double>(r.bytes) / link.bytes_per_s : 0;
  if (r.verb == Verb::kDownload) return {r.at, r.at + link.latency_s + xfer};
  return {r.at - link.latency_s - xfer, r.at};
}

// Two requests belong to one wave of parallel requests when their arrivals
// are closer than half the shortest request latency.
double wave_gap(const WorkloadSpec& spec) {
  double lat = 0;
  for (const LinkSpec& l : spec.links) {
    if (l.latency_s > 0 && (lat == 0 || l.latency_s < lat)) lat = l.latency_s;
  }
  return lat > 0 ? lat / 2 : 0.0005;
}

struct KernelTimes {
  double cdc = 0, sha1 = 0, sha256 = 0, seal = 0, encode = 0, decode = 0;
  double bytes = 0;
};

// Single-thread replay of the round's bytes through the upload chain
// (whole-file SHA-1, CDC, per-segment SHA-256, convergent seal, RS encode)
// and RS decode, with the client's own parameters. Each step is one span.
KernelTimes replay_kernels(const std::vector<Bytes>& files, std::size_t theta,
                           const erasure::RsCode& code, std::size_t code_n,
                           std::size_t k, SpanSink& sink, std::uint64_t parent) {
  KernelTimes t;
  const chunker::SegmenterParams seg{theta};
  // The CDC parameters chunker::segment_file derives from theta.
  chunker::CdcParams cdc;
  cdc.min_size = std::max<std::size_t>(1, theta / 4);
  cdc.target_size = std::max<std::size_t>(cdc.min_size, theta);
  cdc.max_size = std::max<std::size_t>(cdc.target_size, seg.max_size());
  std::vector<std::uint32_t> indices(code_n);
  for (std::size_t i = 0; i < code_n; ++i) {
    indices[i] = static_cast<std::uint32_t>(i);
  }
  const auto measure = [&](const char* name, double& total, const auto& fn) {
    const double start = now_s();
    fn();
    const double end = now_s();
    total += end - start;
    sink.add(name, parent, start, end);
  };
  for (const Bytes& file : files) {
    const ByteSpan content(file);
    t.bytes += static_cast<double>(file.size());
    measure("replay.cdc", t.cdc, [&] { (void)chunker::cdc_split(content, cdc); });
    measure("replay.sha1", t.sha1, [&] { (void)crypto::Sha1::hash(content); });
    for (const chunker::Segment& s : chunker::segment_file(content, seg)) {
      const ByteSpan piece = content.subspan(s.offset, s.length);
      measure("replay.sha256", t.sha256,
              [&] { (void)crypto::Sha256::hash(piece); });
      Bytes sealed(piece.begin(), piece.end());
      measure("replay.seal", t.seal,
              [&] { crypto::convergent_seal_inplace(s.id, sealed); });
      std::vector<erasure::Shard> shards;
      measure("replay.encode", t.encode, [&] {
        shards = code.encode_shards(ByteSpan(sealed), indices);
      });
      shards.resize(std::min(shards.size(), k));
      measure("replay.decode", t.decode, [&] {
        auto out = code.decode(shards, sealed.size());
        check(out.status(), "replay decode");
        check(out.value() == sealed, "replay decode mismatch");
      });
    }
  }
  return t;
}

// Per-round sums of the traced pass; reported as means per round.
struct LayerSums {
  double lock_calls = 0, meta_calls = 0, data_calls = 0;
  double bytes_up = 0, bytes_down = 0, errors = 0;
  double serial_waves = 0, control_waves = 0;
  double lock_scopes = 0, lock_acquire_s = 0;
  std::vector<double> standalone_lock_s, standalone_fetch_s;
  double dirty_shards = 0, dirty_commits = 0;
  double publish_s = 0, meta_bytes_up = 0, fetch_s = 0;
  double scan_s = 0, upload_s = 0, commit_s = 0, apply_s = 0, local_s = 0;
  KernelTimes kernels;
  double upload_inflight_peak = 0, pipeline_peak = 0, restore_peak = 0;
  std::uint64_t spans_dropped = 0;
  std::size_t rounds = 0;
};

// ---------------------------------------------------------------------------
// One pass: set-up plus a timed closed loop of rounds.

struct RoundSample {
  double commit_s = 0;
  double pull_s = 0;
  std::uint64_t payload = 0;  // plaintext bytes of files added or rewritten
  std::uint64_t calls = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t lock_calls = 0;
  std::uint64_t meta_calls = 0;
  std::string digest;
};

struct PassResult {
  std::vector<double> setup_s;
  std::vector<RoundSample> rounds;  // successful rounds
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> mismatches;
  std::string crosscheck;  // "" = probe and client counters agree
  double storage_ratio = 0;
  double client_peak_mb = 0;
  std::map<std::string, double> kernel_gauges;
  LayerSums layers;
  std::map<std::string, double> counters;  // traced: pass-level deltas
};

std::string cross_check(const Rig& rig) {
  std::string diff;
  for (int attempt = 0; attempt < 20; ++attempt) {
    // Completions meter after the probe has counted; let stragglers land.
    if (attempt > 0) std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const ProbeCounts probe = rig.log->counts();
    const obs::MetricsSnapshot w = rig.writer->observability()->metrics.snapshot();
    const obs::MetricsSnapshot r = rig.reader->observability()->metrics.snapshot();
    diff.clear();
    for (std::size_t c = 0; c < kClouds; ++c) {
      for (std::size_t v = 0; v < kVerbs; ++v) {
        for (std::size_t a = 0; a < kAreas; ++a) {
          for (std::size_t o = 0; o < 2; ++o) {
            const std::string name = "cloud.cloud" + std::to_string(c) + "." +
                                     kVerbNames[v] + "." + kAreaNames[a] +
                                     (o == 0 ? ".ok" : ".err");
            const std::uint64_t client =
                w.counter_value(name) + r.counter_value(name);
            if (client != probe.calls[c][v][a][o]) {
              diff += " " + name + " probe=" +
                      std::to_string(probe.calls[c][v][a][o]) +
                      " client=" + std::to_string(client);
            }
          }
        }
      }
    }
    if (diff.empty()) return diff;
  }
  return diff;
}

class Pass {
 public:
  Pass(const Options& opt, const WorkloadSpec& spec, bool traced,
       double seconds, int setups, SpanSink* sink)
      : opt_(opt), spec_(spec), traced_(traced), seconds_(seconds),
        setups_(setups), sink_(sink) {}

  PassResult run() {
    InputGenerator gen(opt_.workload, opt_.seed);
    const RoundInput population = gen.populate();
    for (int i = 0; i < setups_; ++i) {
      rig_.reset();  // the previous set-up's clouds and clients go first
      const double t0 = now_s();
      rig_ = build_rig(spec_, population, opt_.seed, traced_);
      result_.setup_s.push_back(now_s() - t0);
    }
    for (const auto& [name, value] :
         rig_->writer->observability()->metrics.snapshot().gauges) {
      if (name.rfind("cpu.kernel.", 0) == 0) result_.kernel_gauges[name] = value;
    }
    if (traced_) start_metrics_ = snapshots();

    const double loop_start = now_s();
    do {
      round(gen.next_round());
      ++index_;
      if (spec_.gc_every > 0 && index_ % spec_.gc_every == 0) collect();
    } while (now_s() - loop_start < seconds_);

    finish();
    return std::move(result_);
  }

 private:
  std::pair<obs::MetricsSnapshot, obs::MetricsSnapshot> snapshots() const {
    return {rig_->writer->observability()->metrics.snapshot(),
            rig_->reader->observability()->metrics.snapshot()};
  }

  void collect() {
    auto gc = rig_->writer->collect_garbage();
    check(gc.status(), "collect_garbage");
  }

  void round(const RoundInput& input) {
    ++result_.attempted;
    RoundSample sample;
    sample.digest = input_digest(input);
    std::vector<Bytes> touched;
    apply_ops(input, *rig_->writer_fs, &sample.payload, traced_ ? &touched : nullptr);

    obs::MetricsSnapshot writer_before;
    if (traced_) {
      (void)rig_->log->take_records();  // maintenance traffic between rounds
      rig_->writer->observability()->tracer.clear();
      rig_->reader->observability()->tracer.clear();
      writer_before = rig_->writer->observability()->metrics.snapshot();
    }

    const ProbeCounts c0 = rig_->log->counts();
    const double t0 = now_s();
    auto wr = rig_->writer->sync();
    const double t1 = now_s();
    const ProbeCounts c1 = rig_->log->counts();
    Result<core::SyncReport> rr = Status(ErrorCode::kInternal, "not run");
    if (wr.is_ok()) rr = rig_->reader->sync();
    const double t2 = now_s();
    ProbeCounts round_counts = rig_->log->counts();
    ProbeCounts writer_counts = c1;
    round_counts -= c0;
    writer_counts -= c0;

    bool ok = wr.is_ok() && wr.value().committed && rr.is_ok() &&
              rr.value().applied_cloud && rr.value().materialize.is_ok();
    if (ok) {
      const std::string diff = folder_diff(*rig_->writer_fs, *rig_->reader_fs);
      if (!diff.empty()) {
        result_.mismatches.push_back("round " + std::to_string(index_) + ": " +
                                     diff);
        ok = false;
      }
    } else {
      std::fprintf(stderr, "round %zu failed: writer %s, reader %s\n", index_,
                   wr.status().to_string().c_str(),
                   rr.status().to_string().c_str());
    }
    if (!ok) {
      ++result_.failed;
      return;
    }

    sample.commit_s = t1 - t0;
    sample.pull_s = t2 - t1;
    sample.calls = round_counts.total_calls();
    sample.wire_bytes =
        round_counts.total_bytes_up() + round_counts.total_bytes_down();
    sample.lock_calls = round_counts.calls_in(Area::kLock);
    sample.meta_calls = round_counts.calls_in(Area::kMeta);
    result_.rounds.push_back(sample);

    if (traced_) {
      trace_round(t0, t1, t2, round_counts, writer_counts, writer_before,
                  wr.value().metrics, rr.value().metrics, touched);
    }
  }

  void trace_round(double t0, double t1, double t2, const ProbeCounts& counts,
                   const ProbeCounts& writer_counts,
                   const obs::MetricsSnapshot& writer_before,
                   const obs::MetricsSnapshot& writer_after,
                   const obs::MetricsSnapshot& reader_after,
                   const std::vector<Bytes>& touched) {
    LayerSums& L = result_.layers;
    ++L.rounds;
    L.lock_calls += static_cast<double>(counts.calls_in(Area::kLock));
    L.meta_calls += static_cast<double>(counts.calls_in(Area::kMeta));
    L.data_calls += static_cast<double>(counts.calls_in(Area::kData));
    L.bytes_up += static_cast<double>(counts.total_bytes_up());
    L.bytes_down += static_cast<double>(counts.total_bytes_down());
    L.errors += static_cast<double>(counts.errors());
    L.meta_bytes_up += static_cast<double>(
        writer_counts.bytes_up[static_cast<std::size_t>(Area::kMeta)]);

    const std::uint64_t round_id = sink_->add("round", 0, t0, t2);
    const std::uint64_t wid = sink_->add("writer.sync", round_id, t0, t1);
    const std::uint64_t rid = sink_->add("reader.sync", round_id, t1, t2);

    std::vector<RpcRecord> records = rig_->log->take_records();
    std::sort(records.begin(), records.end(),
              [](const RpcRecord& a, const RpcRecord& b) { return a.at < b.at; });
    const double gap = wave_gap(spec_);
    double prev = -1e300;
    bool wave_has_data = false;
    std::size_t waves = 0, control = 0;
    std::vector<std::pair<double, double>> busy;
    for (const RpcRecord& r : records) {
      const bool in_writer = r.at <= t1;
      const auto [s, e] = rpc_interval(r, spec_);
      char args[160];
      std::snprintf(args, sizeof args,
                    "\"cloud\":%u,\"verb\":\"%s\",\"area\":\"%s\",\"bytes\":%llu,"
                    "\"ok\":%s",
                    r.cloud, kVerbNames[static_cast<std::size_t>(r.verb)],
                    kAreaNames[static_cast<std::size_t>(r.area)],
                    static_cast<unsigned long long>(r.bytes),
                    r.ok ? "true" : "false");
      sink_->add("rpc", in_writer ? wid : rid, s, e, args);
      if (!in_writer) continue;
      busy.emplace_back(std::max(s, t0), std::min(e, t1));
      if (r.at - prev > gap) {
        if (waves > 0 && !wave_has_data) ++control;
        ++waves;
        wave_has_data = false;
      }
      wave_has_data = wave_has_data || r.area == Area::kData;
      prev = r.at;
    }
    if (waves > 0 && !wave_has_data) ++control;
    L.serial_waves += static_cast<double>(waves);
    L.control_waves += static_cast<double>(control);

    // Writer time with no request in flight.
    std::sort(busy.begin(), busy.end());
    double covered = 0, reach = t0;
    for (const auto& [s, e] : busy) {
      if (e <= reach) continue;
      covered += e - std::max(s, reach);
      reach = e;
    }
    L.local_s += (t1 - t0) - covered;

    // The clients' own spans for this round.
    obs::Tracer& wt = rig_->writer->observability()->tracer;
    obs::Tracer& rt = rig_->reader->observability()->tracer;
    const std::vector<obs::SpanRecord> ws = wt.finished();
    const std::vector<obs::SpanRecord> rs = rt.finished();
    L.spans_dropped += wt.dropped() + rt.dropped();
    wt.clear();
    rt.clear();
    sink_->add_client("writer", ws);
    sink_->add_client("reader", rs);
    std::size_t scopes = 0;
    L.lock_acquire_s += span_sum(ws, "lock.acquire", &scopes);
    L.lock_scopes += static_cast<double>(scopes);
    L.publish_s += span_sum(ws, "meta.shard.publish") + span_sum(ws, "meta.publish");
    L.scan_s += span_sum(ws, "sync.scan");
    L.upload_s += span_sum(ws, "sync.upload_segments");
    L.commit_s += span_sum(ws, "sync.commit");
    L.apply_s += span_sum(rs, "sync.apply_cloud");
    L.fetch_s += span_sum(rs, "meta.fetch_latest");

    const auto hist = [](const obs::MetricsSnapshot& m, const std::string& n) {
      const auto it = m.histograms.find(n);
      return it == m.histograms.end() ? obs::HistogramStats{} : it->second;
    };
    const obs::HistogramStats d0 = hist(writer_before, "meta.shard.dirty");
    const obs::HistogramStats d1 = hist(writer_after, "meta.shard.dirty");
    L.dirty_shards += d1.sum - d0.sum;
    L.dirty_commits += static_cast<double>(d1.count - d0.count);
    L.upload_inflight_peak = std::max(
        L.upload_inflight_peak, writer_after.gauge_value("driver.up.rpcs_inflight_peak"));
    L.pipeline_peak = std::max(
        L.pipeline_peak, writer_after.gauge_value("pipeline.inflight_bytes_peak"));
    L.restore_peak = std::max(
        L.restore_peak, reader_after.gauge_value("restore.inflight_bytes_peak"));

    // Standalone control-plane timings on the workload's links.
    {
      lock::LockConfig cfg;
      cfg.lock_dir = "/perfbench-lock";
      lock::LockManager locks(rig_->standalone, "perfbench", cfg,
                              RealClock::instance(), Rng(opt_.seed));
      const double s = now_s();
      check(locks.acquire_all({lock::Scope::of_shard(0)}), "standalone lock");
      locks.release_all();
      const double e = now_s();
      L.standalone_lock_s.push_back(e - s);
      sink_->add("standalone.lock", round_id, s, e);
    }
    {
      metadata::ShardedMetaStore store(rig_->standalone,
                                       rig_->writer->config().passphrase,
                                       metadata::ShardConfig{}, nullptr,
                                       rig_->writer->config().cipher);
      const double s = now_s();
      check(store.fetch_latest().status(), "standalone fetch_latest");
      const double e = now_s();
      L.standalone_fetch_s.push_back(e - s);
      sink_->add("standalone.fetch_latest", round_id, s, e);
    }
    const KernelTimes k = replay_kernels(
        touched, spec_.theta, rig_->writer->codec(),
        rig_->writer->code_params().code_n(), rig_->writer->config().k, *sink_,
        round_id);
    L.kernels.cdc += k.cdc;
    L.kernels.sha1 += k.sha1;
    L.kernels.sha256 += k.sha256;
    L.kernels.seal += k.seal;
    L.kernels.encode += k.encode;
    L.kernels.decode += k.decode;
    L.kernels.bytes += k.bytes;
  }

  void finish() {
    result_.crosscheck = cross_check(*rig_);
    if (traced_) {
      const auto [w, r] = snapshots();
      const auto delta = [](const obs::MetricsSnapshot& a,
                            const obs::MetricsSnapshot& b,
                            const std::string& prefix, const std::string& suffix) {
        return static_cast<double>(counter_family(b, prefix, suffix) -
                                   counter_family(a, prefix, suffix));
      };
      const auto& [w0, r0] = start_metrics_;
      result_.counters = {
          {"segments", delta(w0, w, "sched.segments", "")},
          {"placed", delta(w0, w, "sched.blocks.placed", "")},
          {"overprovisioned", delta(w0, w, "sched.overprovisioned", "")},
          {"fetched", delta(r0, r, "driver.down.cloud", ".ok")},
          {"restored", delta(r0, r, "restore.segments", "")},
          {"hedges", delta(w0, w, "driver.hedge_tasks", "") +
                         delta(r0, r, "driver.hedge_tasks", "")},
          {"retries", delta(w0, w, "retry.", ".retries") +
                          delta(r0, r, "retry.", ".retries")},
      };
      const auto hist_p50 = [](const obs::MetricsSnapshot& m, const std::string& n) {
        const auto it = m.histograms.find(n);
        return it == m.histograms.end() ? 0.0 : it->second.p50;
      };
      result_.counters["encode_p50"] = hist_p50(w, "pipeline.stage.encode.latency");
      result_.counters["decode_p50"] = hist_p50(r, "restore.stage.decode.latency");
    }

    // Storage is measured after a final collection, against the plaintext
    // of every file version the committed image still references.
    collect();
    std::uint64_t stored = 0;
    for (const auto& m : rig_->mem) stored += m->stored_bytes();
    double live = 0;
    const metadata::SyncFolderImage& image = rig_->writer->image();
    for (const auto& [path, snapshot] : image.files()) {
      live += static_cast<double>(snapshot.size);
      for (const metadata::FileSnapshot& old : image.history(path)) {
        live += static_cast<double>(old.size);
      }
    }
    result_.storage_ratio = live > 0 ? static_cast<double>(stored) / live : 0;
    const double held = static_cast<double>(stored) +
                        static_cast<double>(folder_bytes(*rig_->writer_fs)) +
                        static_cast<double>(folder_bytes(*rig_->reader_fs));
    result_.client_peak_mb = (peak_rss_bytes() - held) / kMB;
    rig_.reset();
  }

  const Options& opt_;
  WorkloadSpec spec_;
  bool traced_;
  double seconds_;
  int setups_;
  SpanSink* sink_;
  std::unique_ptr<Rig> rig_;
  std::size_t index_ = 0;
  std::pair<obs::MetricsSnapshot, obs::MetricsSnapshot> start_metrics_;
  PassResult result_;
};

// ---------------------------------------------------------------------------
// Reporting

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

std::map<std::string, double> end_to_end(const PassResult& p) {
  std::vector<double> commit, pull;
  double payload = 0, wsum = 0, rsum = 0, calls = 0, wire = 0;
  for (const RoundSample& s : p.rounds) {
    commit.push_back(s.commit_s);
    pull.push_back(s.pull_s);
    payload += static_cast<double>(s.payload);
    wsum += s.commit_s;
    rsum += s.pull_s;
    calls += static_cast<double>(s.calls);
    wire += static_cast<double>(s.wire_bytes);
  }
  const double n = std::max<double>(1, static_cast<double>(p.rounds.size()));
  const double attempted = std::max<double>(1, static_cast<double>(p.attempted));
  return {
      {"setup_s", median(p.setup_s)},
      {"commit_p50_s", median(commit)},
      {"commit_tail_s", tail_of(commit).value},
      {"pull_p50_s", median(pull)},
      {"pull_tail_s", tail_of(pull).value},
      {"upload_MBps", wsum > 0 ? payload / wsum / kMB : 0},
      {"restore_MBps", rsum > 0 ? payload / rsum / kMB : 0},
      {"api_calls_per_commit", calls / n},
      {"traffic_ratio", payload > 0 ? wire / payload : 0},
      {"storage_ratio", p.storage_ratio},
      {"client_peak_mb", p.client_peak_mb},
      {"success_rate", 1.0 - static_cast<double>(p.failed) / attempted},
  };
}

std::vector<Metric> end_to_end_metrics(const PassResult& p) {
  std::map<std::string, double> v = end_to_end(p);
  std::vector<double> commit, pull;
  for (const RoundSample& s : p.rounds) {
    commit.push_back(s.commit_s);
    pull.push_back(s.pull_s);
  }
  const auto tail_note = [](const Tail& t) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "p%.1f of %zu rounds%s", t.percentile,
                  t.samples, t.exact ? "" : " (max: under 11 rounds)");
    return std::string(buf);
  };
  const std::string rounds = std::to_string(p.rounds.size()) + " rounds";
  const double attempted = std::max<double>(1, static_cast<double>(p.attempted));
  return {
      {"setup_s", v["setup_s"], "s",
       "median of " + std::to_string(p.setup_s.size()) + " set-ups"},
      {"commit_p50_s", v["commit_p50_s"], "s", rounds},
      {"commit_tail_s", v["commit_tail_s"], "s", tail_note(tail_of(commit))},
      {"pull_p50_s", v["pull_p50_s"], "s", rounds},
      {"pull_tail_s", v["pull_tail_s"], "s", tail_note(tail_of(pull))},
      {"upload_MBps", v["upload_MBps"], "MB/s", ""},
      {"restore_MBps", v["restore_MBps"], "MB/s", ""},
      {"api_calls_per_commit", v["api_calls_per_commit"], "calls", ""},
      {"traffic_ratio", v["traffic_ratio"], "x", ""},
      {"storage_ratio", v["storage_ratio"], "x", ""},
      {"client_peak_mb", v["client_peak_mb"], "MB", ""},
      {"success_rate", v["success_rate"], "fraction",
       "error_rate = " + std::to_string(static_cast<double>(p.failed) / attempted)},
  };
}

std::vector<Metric> per_layer_metrics(const PassResult& p) {
  const LayerSums& L = p.layers;
  const std::map<std::string, double>& c = p.counters;
  const double n = std::max<double>(1, static_cast<double>(L.rounds));
  const auto per_round = [&](double v) { return v / n; };
  const auto rate = [&](double secs) {
    return secs > 0 ? L.kernels.bytes / secs / kMB : 0;
  };
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0; };
  const KernelTimes& k = L.kernels;
  const double chain = k.cdc + k.sha1 + k.sha256 + k.seal + k.encode;
  const double segments = c.count("segments") ? c.at("segments") : 0;
  return {
      {"cloud.lock_calls", per_round(L.lock_calls), "calls", "per round"},
      {"cloud.meta_calls", per_round(L.meta_calls), "calls", "per round"},
      {"cloud.data_calls", per_round(L.data_calls), "calls", "per round"},
      {"cloud.bytes_up", per_round(L.bytes_up), "bytes", "per round"},
      {"cloud.bytes_down", per_round(L.bytes_down), "bytes", "per round"},
      {"cloud.errors", per_round(L.errors), "calls", "per round"},
      {"cloud.retries", per_round(c.at("retries")), "calls", "per round"},
      {"cloud.serial_round_trips", per_round(L.serial_waves), "waves",
       "writer sync, per round"},
      {"cloud.control_round_trip_share", ratio(L.control_waves, L.serial_waves),
       "fraction", "waves with no data call"},
      {"lock.scopes_per_commit", per_round(L.lock_scopes), "scopes", ""},
      {"lock.acquire_s", per_round(L.lock_acquire_s), "s", "per commit"},
      {"lock.standalone_acquire_s", median(L.standalone_lock_s), "s", "median"},
      {"metadata.dirty_shards", ratio(L.dirty_shards, L.dirty_commits), "shards",
       "per commit"},
      {"metadata.publish_s", per_round(L.publish_s), "s", "per commit"},
      {"metadata.bytes_per_commit", per_round(L.meta_bytes_up), "bytes", ""},
      {"metadata.fetch_s", per_round(L.fetch_s), "s", "per pull"},
      {"metadata.standalone_fetch_s", median(L.standalone_fetch_s), "s", "median"},
      {"core.scan_s", per_round(L.scan_s), "s", "per commit"},
      {"core.upload_s", per_round(L.upload_s), "s", "per commit"},
      {"core.commit_s", per_round(L.commit_s), "s", "per commit"},
      {"core.apply_s", per_round(L.apply_s), "s", "per pull"},
      {"core.local_s", per_round(L.local_s), "s", "per commit"},
      {"chunker.cdc_MBps", rate(k.cdc), "MB/s", "1 thread"},
      {"crypto.sha1_MBps", rate(k.sha1), "MB/s", "1 thread"},
      {"crypto.sha256_MBps", rate(k.sha256), "MB/s", "1 thread"},
      {"crypto.seal_MBps", rate(k.seal), "MB/s", "1 thread"},
      {"erasure.encode_MBps", rate(k.encode), "MB/s", "1 thread, all code_n rows"},
      {"erasure.decode_MBps", rate(k.decode), "MB/s", "1 thread"},
      {"kernels.serial_ceiling_MBps", rate(chain), "MB/s", "1/sum(1/rate)"},
      {"kernels.share_of_scan_upload", ratio(chain, L.scan_s + L.upload_s),
       "fraction", "replayed chain time / (core.scan_s + core.upload_s)"},
      {"sched.blocks_per_segment", ratio(c.at("placed"), segments), "blocks", ""},
      {"sched.overprovisioned_per_segment", ratio(c.at("overprovisioned"), segments),
       "blocks", ""},
      {"sched.fetch_blocks_per_segment", ratio(c.at("fetched"), c.at("restored")),
       "blocks", "ideal is k"},
      {"sched.upload_inflight_peak", L.upload_inflight_peak, "rpcs", ""},
      {"sched.hedges", per_round(c.at("hedges")), "tasks", "per round"},
      {"pipeline.encode_wait_p50_s", c.at("encode_p50"), "s",
       "seal+encode stage latency per segment"},
      {"pipeline.inflight_peak_mb", L.pipeline_peak / kMB, "MB", ""},
      {"restore.decode_p50_s", c.at("decode_p50"), "s", ""},
      {"restore.inflight_peak_mb", L.restore_peak / kMB, "MB", ""},
      {"spans_dropped", static_cast<double>(L.spans_dropped), "spans", "must be 0"},
  };
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  return out + "}";
}

void print_table(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-34s %14.6g %-9s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
}

std::string fingerprint(const Options& opt, const PassResult& p) {
  std::string out = "{\"workload\": \"" + opt.workload +
                    "\", \"seed\": " + std::to_string(opt.seed) +
                    ", \"seconds\": " + json_number(opt.seconds) +
                    ", \"trace\": " + (opt.trace ? "1" : "0") +
                    ", \"nproc\": " +
                    std::to_string(std::thread::hardware_concurrency()) +
                    ", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\", \"kernels\": {";
  bool first = true;
  for (const auto& [name, value] : p.kernel_gauges) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": " + json_number(value);
  }
  return out + "}}";
}

int run(const Options& opt) {
  const WorkloadSpec spec = workload_spec(opt.workload);

  // Determinism self-test of the inputs: two generators on one seed agree
  // on the population and the first rounds; another seed does not.
  {
    InputGenerator a(opt.workload, opt.seed), b(opt.workload, opt.seed);
    InputGenerator other(opt.workload, opt.seed + 1);
    check(input_digest(a.populate()) == input_digest(b.populate()),
          "population is not a function of the seed");
    (void)other.populate();
    bool differs = false;
    for (int i = 0; i < 3; ++i) {
      const std::string da = input_digest(a.next_round());
      check(da == input_digest(b.next_round()),
            "round inputs are not a function of the seed");
      differs = differs || da != input_digest(other.next_round());
    }
    check(differs, "round inputs ignore the seed");
  }

  std::filesystem::create_directories(opt.out_dir);
  const std::string stem = opt.out_dir + "/" + opt.workload + "-seed" +
                           std::to_string(opt.seed) + "-trace" +
                           (opt.trace ? "1" : "0");
  std::vector<std::string> problems;
  PassResult pass;
  std::vector<Metric> metrics;

  if (!opt.trace) {
    pass = Pass(opt, spec, false, opt.seconds, kSetups, nullptr).run();
    metrics = end_to_end_metrics(pass);
    print_table("end-to-end (untraced)", metrics);
  } else {
    const PassResult plain =
        Pass(opt, spec, false, opt.seconds / 2, 1, nullptr).run();
    SpanSink sink;
    const double trace_t0 = now_s();
    pass = Pass(opt, spec, true, opt.seconds / 2, 1, &sink).run();
    metrics = per_layer_metrics(pass);
    print_table("per-layer (traced)", metrics);

    // Tracing overhead: the same inputs, untraced vs traced.
    const auto a = end_to_end(plain);
    const auto b = end_to_end(pass);
    std::printf("tracing overhead (traced vs untraced pass):\n");
    for (const char* name :
         {"commit_p50_s", "pull_p50_s", "upload_MBps", "restore_MBps"}) {
      std::printf("  %-20s %12.6g -> %12.6g (%+.1f%%)\n", name, a.at(name),
                  b.at(name),
                  a.at(name) > 0 ? 100.0 * (b.at(name) / a.at(name) - 1) : 0.0);
    }

    // Counts the program fixes repeat exactly across the two passes.
    const std::size_t common = std::min(plain.rounds.size(), pass.rounds.size());
    std::size_t differ = 0;
    for (std::size_t i = 0; i < common; ++i) {
      check(plain.rounds[i].digest == pass.rounds[i].digest,
            "passes saw different inputs");
      if (plain.rounds[i].lock_calls != pass.rounds[i].lock_calls ||
          plain.rounds[i].meta_calls != pass.rounds[i].meta_calls) {
        ++differ;
      }
    }
    std::printf("lock+metadata calls per round repeat in %zu of %zu rounds\n",
                common - differ, common);
    if (differ > 0 && opt.workload == "small_edits") {
      problems.push_back("lock/metadata calls per round differ between passes");
    }
    if (!plain.crosscheck.empty()) {
      problems.push_back("untraced pass probe cross-check:" + plain.crosscheck);
    }
    for (const std::string& m : plain.mismatches) problems.push_back(m);
    if (plain.failed != 0) problems.push_back("untraced pass had failed rounds");
    if (pass.layers.spans_dropped != 0) problems.push_back("spans were dropped");

    sink.write(stem + "-spans.json", trace_t0);
    std::printf("wrote %zu spans to %s-spans.json\n", sink.size(), stem.c_str());
  }

  if (!pass.crosscheck.empty()) {
    problems.push_back("probe cross-check:" + pass.crosscheck);
  }
  for (const std::string& m : pass.mismatches) problems.push_back(m);
  for (const std::string& p : problems) std::printf("FAILED: %s\n", p.c_str());

  const bool correct = problems.empty();
  const std::string fp = fingerprint(opt, pass);
  const std::string result =
      "{\"correct\": " + std::string(correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(pass.attempted) +
      ", \"failed\": " + std::to_string(pass.failed) +
      ", \"metrics\": " + json_metrics(metrics) + "}";
  {
    // Per-round samples: [commit_s, pull_s, calls, wire bytes, payload bytes].
    std::string rounds;
    for (const RoundSample& s : pass.rounds) {
      rounds += std::string(rounds.empty() ? "" : ", ") + "[" +
                json_number(s.commit_s) + ", " + json_number(s.pull_s) + ", " +
                std::to_string(s.calls) + ", " + std::to_string(s.wire_bytes) +
                ", " + std::to_string(s.payload) + "]";
    }
    std::ofstream out(stem + "-result.json", std::ios::trunc);
    out << "{\"fingerprint\": " << fp << ", \"result\": " << result
        << ", \"setup_s\": [";
    for (std::size_t i = 0; i < pass.setup_s.size(); ++i) {
      out << (i ? ", " : "") << json_number(pass.setup_s[i]);
    }
    out << "], \"rounds\": [" << rounds << "]}\n";
  }
  std::printf("fingerprint %s\n", fp.c_str());
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace unidrive::perfbench

int main(int argc, char** argv) {
  try {
    return unidrive::perfbench::run(
        unidrive::perfbench::parse_options(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
