#include "bench_util.h"

#include <cmath>
#include <cstring>

#include "workload/files.h"

namespace unidrive::bench {

double correlation(const std::vector<double>& a, const std::vector<double>& b) {
  const std::size_t n = std::min(a.size(), b.size());
  if (n < 2) return 0;
  double sa = 0, sb = 0, saa = 0, sbb = 0, sab = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sa += a[i];
    sb += b[i];
    saa += a[i] * a[i];
    sbb += b[i] * b[i];
    sab += a[i] * b[i];
  }
  const double dn = static_cast<double>(n);
  const double cov = sab / dn - (sa / dn) * (sb / dn);
  const double va = saa / dn - (sa / dn) * (sa / dn);
  const double vb = sbb / dn - (sb / dn) * (sb / dn);
  if (va <= 0 || vb <= 0) return 0;
  return cov / std::sqrt(va * vb);
}

void print_rule(int width) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

std::string fmt(double v, int decimals) {
  if (v < 0) return "n/a";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

std::string fmt_signed(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%+.*f", decimals, v);
  return buf;
}

UpDown unidrive_updown(sim::SimEnv& env, sim::CloudSet& set,
                       std::uint64_t bytes,
                       const UniDriveRunOptions& options) {
  UpDown result;
  const auto specs = workload::upload_specs({bytes}, options.theta, "bench");

  std::vector<cloud::CloudId> ids;
  for (const auto& c : set.clouds) ids.push_back(c->id());
  sched::UploadScheduler up_sched(options.code, ids, specs, options.upload);
  sched::ThroughputMonitor up_monitor;
  sim::RunConfig run;
  run.connections_per_cloud = options.connections_per_cloud;
  run.dynamic_polling = options.dynamic_polling;

  const double up_start = env.now();
  const auto up = run_upload_job(env, set.ptrs(), up_sched, up_monitor, run);
  if (!up.all_available) return result;
  result.up = up.available_time - up_start;

  // Download the same file from the layout the upload produced.
  std::vector<sched::DownloadFileSpec> down_specs;
  sched::DownloadFileSpec file;
  file.path = specs[0].path;
  for (const auto& seg : specs[0].segments) {
    file.segments.push_back({seg.id, seg.size, up_sched.locations(seg.id)});
  }
  down_specs.push_back(std::move(file));
  sched::DownloadScheduler down_sched(options.code.k, down_specs);
  sched::ThroughputMonitor down_monitor;
  const double down_start = env.now();
  const auto down =
      run_download_job(env, set.ptrs(), down_sched, down_monitor, run);
  if (down.all_complete) result.down = down.finish_time - down_start;
  return result;
}

UpDown native_updown(sim::SimEnv& env, sim::CloudSet& set,
                     std::size_t cloud_index, std::uint64_t bytes) {
  UpDown result;
  const auto kind = static_cast<sim::CloudKind>(cloud_index);
  result.up = baselines::native_upload_time(env, *set.clouds[cloud_index],
                                            kind, bytes);
  result.down = baselines::native_download_time(env, *set.clouds[cloud_index],
                                                kind, bytes);
  return result;
}

UpDown intuitive_updown(sim::SimEnv& env, sim::CloudSet& set,
                        std::uint64_t bytes) {
  UpDown result;
  result.up = baselines::intuitive_upload_time(env, set, bytes);
  result.down = baselines::intuitive_download_time(env, set, bytes);
  return result;
}

double measure_raw(sim::SimEnv& env, sim::SimCloud& cloud,
                   std::uint64_t bytes, bool download) {
  const double start = env.now();
  bool done = false;
  bool ok = false;
  auto cb = [&](bool success) {
    ok = success;
    done = true;
  };
  if (download) {
    cloud.download(static_cast<double>(bytes), cb);
  } else {
    cloud.upload(static_cast<double>(bytes), cb);
  }
  while (!done && env.step()) {
  }
  return ok ? env.now() - start : -1.0;
}

void advance_to(sim::SimEnv& env, double t) { env.run_until(t); }

double replay_trial_upload(const workload::Trial& trial,
                           std::size_t event_index, std::uint64_t seed,
                           const UniDriveRunOptions& options) {
  const workload::UploadEvent& event = trial.events[event_index];
  const workload::TrialSite& site = trial.sites[event.site];
  sim::LocationProfile location{site.name, site.region, 0};

  sim::SimEnv env(seed);
  sim::CloudSet set = sim::make_cloud_set(env, location, seed);
  advance_to(env, event.time);

  const UpDown r = unidrive_updown(env, set, event.bytes, options);
  if (r.up <= 0) return -1.0;
  return static_cast<double>(event.bytes) * 8 / r.up / 1e6;
}

std::int64_t proc_status_kib(const char* field) {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  const std::size_t len = std::strlen(field);
  char line[256];
  long long kib = -1;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, field, len) == 0 && line[len] == ':' &&
        std::sscanf(line + len + 1, "%lld", &kib) == 1) {
      break;
    }
  }
  std::fclose(f);
  return kib;
}

std::size_t fastest_native_cloud(const sim::LocationProfile& location) {
  std::size_t best = 0;
  double best_rate = 0;
  for (std::size_t c = 0; c < sim::kNumClouds; ++c) {
    const double up =
        sim::link_spec(static_cast<sim::CloudKind>(c), location.region).up_bps;
    if (up > best_rate) {
      best_rate = up;
      best = c;
    }
  }
  return best;
}

}  // namespace unidrive::bench
