#include "cloud/async.h"

#include <atomic>
#include <utility>

#include "cloud/faulty_cloud.h"
#include "cloud/latent_cloud.h"
#include "cloud/metered_cloud.h"
#include "cloud/path.h"
#include "cloud/quota_cloud.h"
#include "cloud/retrying_cloud.h"

namespace unidrive::cloud {

// --- AsyncOpState / AsyncHandle ---------------------------------------------

namespace detail {

bool AsyncOpState::try_begin() {
  std::lock_guard<std::mutex> lock(mu_);
  if (phase_ != Phase::kPending) return false;
  phase_ = Phase::kRunning;
  runner_ = std::this_thread::get_id();
  on_cancel_ = nullptr;  // can no longer be needed; drop captured refs
  return true;
}

void AsyncOpState::finish() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    phase_ = Phase::kDone;
  }
  cv_.notify_all();
}

bool AsyncOpState::cancel() {
  std::unique_lock<std::mutex> lock(mu_);
  if (phase_ == Phase::kPending) {
    phase_ = Phase::kCancelled;
    std::function<void()> hook = std::move(on_cancel_);
    on_cancel_ = nullptr;
    lock.unlock();
    if (hook) hook();
    return true;
  }
  if (phase_ == Phase::kRunning && runner_ != std::this_thread::get_id()) {
    cv_.wait(lock, [this] { return phase_ != Phase::kRunning; });
  }
  return false;
}

bool AsyncOpState::set_on_cancel(std::function<void()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  if (phase_ == Phase::kCancelled) return false;
  on_cancel_ = std::move(fn);
  return true;
}

}  // namespace detail

bool AsyncHandle::cancel() {
  if (!state_) return false;
  return state_->cancel();
}

// --- shared op plumbing -----------------------------------------------------

namespace {

using detail::AsyncOpState;
using OpStatePtr = std::shared_ptr<AsyncOpState>;

// Invokes `done(value)` under the op-state guard: a no-op when the op was
// cancelled, and cancellers block while it runs.
template <typename Cb, typename V>
void complete(const OpStatePtr& state, const Cb& done, V value) {
  if (!state->try_begin()) return;
  done(std::move(value));
  state->finish();
}

// Defers an already-known outcome onto the I/O pool so the completion never
// runs on the caller's stack (invariant 1 in async.h).
template <typename Cb, typename V>
AsyncHandle defer_result(const AsyncContext& ctx, Cb done, V value) {
  auto state = std::make_shared<AsyncOpState>();
  ctx.io->submit(
      [state, done = std::move(done), value = std::move(value)]() mutable {
        complete(state, done, std::move(value));
      });
  return AsyncHandle(state);
}

// Links a composite op (retry chain, latency chain, fault chain) to its
// cancel hook: cancelling the outer handle cancels whatever inner step —
// wheel timer or inner-cloud handle — is currently armed, and stops further
// steps from being armed.
struct OpChain {
  std::mutex mu;
  bool cancelled = false;
  AsyncHandle inner;
  TimerWheel::TimerId timer = 0;
};

using ChainPtr = std::shared_ptr<OpChain>;

ChainPtr make_chain(const OpStatePtr& state, TimerWheel* wheel) {
  auto chain = std::make_shared<OpChain>();
  state->set_on_cancel([chain, wheel] {
    AsyncHandle inner;
    TimerWheel::TimerId timer = 0;
    {
      std::lock_guard<std::mutex> lock(chain->mu);
      chain->cancelled = true;
      inner = std::move(chain->inner);
      chain->inner = AsyncHandle();
      timer = chain->timer;
      chain->timer = 0;
    }
    // Outside the chain lock: either cancel may block while the step it is
    // cancelling runs, and that step takes the chain lock itself.
    if (timer != 0 && wheel != nullptr) wheel->cancel(timer);
    inner.cancel();
  });
  return chain;
}

// Arms an inner-cloud step. False = the op was cancelled first; the step was
// not launched.
template <typename Launch>
bool chain_step(const ChainPtr& chain, Launch&& launch) {
  std::lock_guard<std::mutex> lock(chain->mu);
  if (chain->cancelled) return false;
  chain->timer = 0;
  chain->inner = launch();
  return true;
}

// Runs `fn` after `delay` on the wheel (immediately, in place, when the
// delay is zero). False = the op was cancelled first.
template <typename Fn>
bool chain_delay(const ChainPtr& chain, TimerWheel* wheel, Duration delay,
                 Fn&& fn) {
  {
    std::lock_guard<std::mutex> lock(chain->mu);
    if (chain->cancelled) return false;
    if (delay > 0) {
      chain->timer =
          wheel->schedule(delay, [chain, fn = std::forward<Fn>(fn)]() mutable {
            {
              std::lock_guard<std::mutex> lock(chain->mu);
              if (chain->cancelled) return;
              chain->timer = 0;
            }
            fn();
          });
      return true;
    }
  }
  fn();
  return true;
}

}  // namespace

// --- SyncAdapter ------------------------------------------------------------

SyncAdapter::SyncAdapter(CloudPtr inner, AsyncContext ctx)
    : inner_(std::move(inner)), ctx_(std::move(ctx)) {}

template <typename R>
AsyncHandle SyncAdapter::run(std::function<R(CloudProvider&)> op,
                             std::function<void(R)> done) {
  auto state = std::make_shared<AsyncOpState>();
  ctx_.io->submit([state, inner = inner_, active = active_, obs = ctx_.obs,
                   op = std::move(op), done = std::move(done)] {
    if (!state->try_begin()) return;  // cancelled while queued
    const auto now_active = active->n.fetch_add(1) + 1;
    auto peak = active->peak.load();
    while (now_active > peak &&
           !active->peak.compare_exchange_weak(peak, now_active)) {
    }
    obs::set_gauge(obs.get(), "async.io.rpcs_active",
                   static_cast<double>(now_active));
    obs::set_gauge(obs.get(), "async.io.rpcs_active_peak",
                   static_cast<double>(active->peak.load()));
    R result = op(*inner);
    obs::set_gauge(obs.get(), "async.io.rpcs_active",
                   static_cast<double>(active->n.fetch_sub(1) - 1));
    done(std::move(result));
    state->finish();
  });
  return AsyncHandle(state);
}

AsyncHandle SyncAdapter::upload_async(const std::string& path, ByteSpan data,
                                      StatusCb done) {
  return run<Status>(
      [path, data](CloudProvider& c) { return c.upload(path, data); },
      std::move(done));
}

AsyncHandle SyncAdapter::download_async(const std::string& path,
                                        BytesCb done) {
  return run<Result<Bytes>>(
      [path](CloudProvider& c) { return c.download(path); }, std::move(done));
}

AsyncHandle SyncAdapter::create_dir_async(const std::string& path,
                                          StatusCb done) {
  return run<Status>([path](CloudProvider& c) { return c.create_dir(path); },
                     std::move(done));
}

AsyncHandle SyncAdapter::list_async(const std::string& dir, ListCb done) {
  return run<Result<std::vector<FileInfo>>>(
      [dir](CloudProvider& c) { return c.list(dir); }, std::move(done));
}

AsyncHandle SyncAdapter::remove_async(const std::string& path, StatusCb done) {
  return run<Status>([path](CloudProvider& c) { return c.remove(path); },
                     std::move(done));
}

// --- native async decorators ------------------------------------------------

namespace {

// Records into its MeteredCloud's registry through the same record_request,
// from the completion. The closures are self-contained (no back-pointer to
// the decorator), so in-flight ops never dangle even if the decorator is
// destroyed first.
class AsyncMeteredCloud final : public AsyncCloud {
 public:
  AsyncMeteredCloud(const MeteredCloud& metered, AsyncCloudPtr inner)
      : inner_(std::move(inner)),
        obs_(metered.obs()),
        prefix_(metered.prefix()) {}

  [[nodiscard]] CloudId id() const noexcept override { return inner_->id(); }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

  AsyncHandle upload_async(const std::string& path, ByteSpan data,
                           StatusCb done) override {
    return inner_->upload_async(
        path, data,
        [obs = obs_, prefix = prefix_, path, t0 = obs_->clock().now(),
         size = data.size(), done = std::move(done)](Status s) {
          record_request(*obs, prefix, "upload", path, s, t0, "bytes_up",
                         size);
          done(std::move(s));
        });
  }

  AsyncHandle download_async(const std::string& path, BytesCb done) override {
    return inner_->download_async(
        path, [obs = obs_, prefix = prefix_, path, t0 = obs_->clock().now(),
               done = std::move(done)](Result<Bytes> r) {
          record_request(*obs, prefix, "download", path, r.status(), t0,
                         "bytes_down", r.is_ok() ? r.value().size() : 0);
          done(std::move(r));
        });
  }

  AsyncHandle create_dir_async(const std::string& path,
                               StatusCb done) override {
    return inner_->create_dir_async(
        path, [obs = obs_, prefix = prefix_, path, t0 = obs_->clock().now(),
               done = std::move(done)](Status s) {
          record_request(*obs, prefix, "create_dir", path, s, t0);
          done(std::move(s));
        });
  }

  AsyncHandle list_async(const std::string& dir, ListCb done) override {
    return inner_->list_async(
        dir, [obs = obs_, prefix = prefix_, dir, t0 = obs_->clock().now(),
              done = std::move(done)](Result<std::vector<FileInfo>> r) {
          record_request(*obs, prefix, "list", dir, r.status(), t0);
          done(std::move(r));
        });
  }

  AsyncHandle remove_async(const std::string& path, StatusCb done) override {
    return inner_->remove_async(
        path, [obs = obs_, prefix = prefix_, path, t0 = obs_->clock().now(),
               done = std::move(done)](Status s) {
          record_request(*obs, prefix, "remove", path, s, t0);
          done(std::move(s));
        });
  }

 private:
  AsyncCloudPtr inner_;
  obs::ObsPtr obs_;      // the MeteredCloud's registry, never null
  std::string prefix_;   // "cloud.<name>."
};

// Shares quota accounting with the blocking QuotaCloud, so async uploads and
// blocking metadata writes charge the same budget.
class AsyncQuotaCloud final : public AsyncCloud {
 public:
  AsyncQuotaCloud(std::shared_ptr<QuotaCloud> quota, AsyncCloudPtr inner,
                  AsyncContext ctx)
      : quota_(std::move(quota)),
        inner_(std::move(inner)),
        ctx_(std::move(ctx)) {}

  [[nodiscard]] CloudId id() const noexcept override { return quota_->id(); }
  [[nodiscard]] std::string name() const override { return quota_->name(); }

  AsyncHandle upload_async(const std::string& path, ByteSpan data,
                           StatusCb done) override {
    const std::string norm = normalize_path(path);
    const Status quota = quota_->check_quota(norm, data.size());
    if (!quota.is_ok()) return defer_result(ctx_, std::move(done), quota);
    return inner_->upload_async(
        norm, data,
        [quota = quota_, norm, size = data.size(),
         done = std::move(done)](Status s) {
          if (s.is_ok()) quota->record_upload(norm, size);
          done(std::move(s));
        });
  }

  AsyncHandle download_async(const std::string& path, BytesCb done) override {
    return inner_->download_async(path, std::move(done));
  }

  AsyncHandle create_dir_async(const std::string& path,
                               StatusCb done) override {
    return inner_->create_dir_async(path, std::move(done));
  }

  AsyncHandle list_async(const std::string& dir, ListCb done) override {
    return inner_->list_async(dir, std::move(done));
  }

  AsyncHandle remove_async(const std::string& path, StatusCb done) override {
    const std::string norm = normalize_path(path);
    return inner_->remove_async(
        norm, [quota = quota_, norm, done = std::move(done)](Status s) {
          if (s.is_ok()) quota->record_remove(norm);
          done(std::move(s));
        });
  }

 private:
  std::shared_ptr<QuotaCloud> quota_;
  AsyncCloudPtr inner_;
  AsyncContext ctx_;
};

// Injects the blocking FaultyCloud's decisions (same RNG stream, same
// counters) on the async surface. Hangs run the injected sleep on the I/O
// pool — a hung RPC legitimately pins an I/O thread, and gated/virtual
// sleeps keep their test semantics — never on the wheel, whose callbacks
// must not block.
class AsyncFaultyCloud final : public AsyncCloud {
 public:
  AsyncFaultyCloud(std::shared_ptr<FaultyCloud> faulty, AsyncCloudPtr inner,
                   AsyncContext ctx)
      : faulty_(std::move(faulty)),
        inner_(std::move(inner)),
        ctx_(std::move(ctx)) {}

  [[nodiscard]] CloudId id() const noexcept override { return faulty_->id(); }
  [[nodiscard]] std::string name() const override { return faulty_->name(); }

  AsyncHandle upload_async(const std::string& path, ByteSpan data,
                           StatusCb done) override {
    const FaultDecision d = faulty_->draw_decision(data.size(),
                                                   /*is_upload=*/true);
    auto state = std::make_shared<AsyncOpState>();
    auto chain = make_chain(state, ctx_.wheel);
    auto proceed = [name = faulty_->name(), inner = inner_, chain, state,
                    path, data, done = std::move(done), d] {
      if (d.fail) {
        complete(state, done, fail_status(d.outage, name));
        return;
      }
      if (d.torn) {
        // Mid-flight abort: the truncated prefix lands, the client sees a
        // failure (same garbage the blocking path leaves behind).
        chain_step(chain, [&] {
          return inner->upload_async(
              path, data.subspan(0, data.size() / 2),
              [state, done, name](Status) {
                complete(state, done,
                         make_error(ErrorCode::kUnavailable,
                                    name + ": upload torn mid-flight"));
              });
        });
        return;
      }
      if (d.drop) {
        // Silently lost: nothing stored, the client sees success.
        complete(state, done, Status::ok());
        return;
      }
      if (d.bitrot) {
        // Corrupted at rest: one flipped byte lands, the client sees
        // success. The rotted buffer rides in the completion closure
        // (upload invariant 3: the span must outlive the request).
        auto rotted = std::make_shared<Bytes>(rot_bytes(data));
        chain_step(chain, [&] {
          return inner->upload_async(path, ByteSpan(*rotted),
                                     [state, done, rotted](Status s) {
                                       complete(state, done, std::move(s));
                                     });
        });
        return;
      }
      chain_step(chain, [&] {
        return inner->upload_async(path, data, [state, done](Status s) {
          complete(state, done, std::move(s));
        });
      });
    };
    dispatch(d, std::move(proceed));
    return AsyncHandle(state);
  }

  AsyncHandle download_async(const std::string& path, BytesCb done) override {
    auto state = std::make_shared<AsyncOpState>();
    auto chain = make_chain(state, ctx_.wheel);
    // Size-dependent failure needs the size: fetch from the inner cloud
    // first, draw in the completion (mirrors the blocking verb).
    chain_step(chain, [&] {
      return inner_->download_async(
          path, [faulty = faulty_, io = ctx_.io, state,
                 done = std::move(done)](Result<Bytes> r) {
            const std::size_t size = r.is_ok() ? r.value().size() : 0;
            const FaultDecision d =
                faulty->draw_decision(size, /*is_upload=*/false);
            auto settle = [name = faulty->name(), state, done,
                           r = std::move(r), d]() mutable {
              if (d.fail) {
                complete(state, done,
                         Result<Bytes>(fail_status(d.outage, name)));
              } else {
                complete(state, done, std::move(r));
              }
            };
            if (d.hang) {
              io->submit([sleep = faulty->sleep_fn(), stall = d.hang_seconds,
                          settle = std::move(settle)]() mutable {
                sleep(stall);
                settle();
              });
            } else {
              settle();
            }
          });
    });
    return AsyncHandle(state);
  }

  AsyncHandle create_dir_async(const std::string& path,
                               StatusCb done) override {
    return meta_op(std::move(done), [path](AsyncCloud& c, StatusCb cb) {
      return c.create_dir_async(path, std::move(cb));
    });
  }

  AsyncHandle list_async(const std::string& dir, ListCb done) override {
    const FaultDecision d = faulty_->draw_decision(0, /*is_upload=*/false);
    auto state = std::make_shared<AsyncOpState>();
    auto chain = make_chain(state, ctx_.wheel);
    auto proceed = [name = faulty_->name(), inner = inner_, chain, state, dir,
                    done = std::move(done), d] {
      if (d.fail) {
        complete(state, done,
                 Result<std::vector<FileInfo>>(fail_status(d.outage, name)));
        return;
      }
      chain_step(chain, [&] {
        return inner->list_async(
            dir, [state, done](Result<std::vector<FileInfo>> r) {
              complete(state, done, std::move(r));
            });
      });
    };
    dispatch(d, std::move(proceed));
    return AsyncHandle(state);
  }

  AsyncHandle remove_async(const std::string& path, StatusCb done) override {
    return meta_op(std::move(done), [path](AsyncCloud& c, StatusCb cb) {
      return c.remove_async(path, std::move(cb));
    });
  }

 private:
  // Shared shape of the Status-returning metadata verbs.
  template <typename Launch>
  AsyncHandle meta_op(StatusCb done, Launch launch) {
    const FaultDecision d = faulty_->draw_decision(0, /*is_upload=*/false);
    auto state = std::make_shared<AsyncOpState>();
    auto chain = make_chain(state, ctx_.wheel);
    auto proceed = [name = faulty_->name(), inner = inner_, chain, state,
                    done = std::move(done), launch = std::move(launch), d] {
      if (d.fail) {
        complete(state, done, fail_status(d.outage, name));
        return;
      }
      chain_step(chain, [&] {
        return launch(*inner, [state, done](Status s) {
          complete(state, done, std::move(s));
        });
      });
    };
    dispatch(d, std::move(proceed));
    return AsyncHandle(state);
  }

  // Runs `proceed` per the decision: after the injected hang (on the I/O
  // pool), deferred (fail paths must not complete on the caller's stack),
  // or in place when it only launches an inner op (which defers itself).
  template <typename Fn>
  void dispatch(const FaultDecision& d, Fn proceed) {
    if (d.hang) {
      ctx_.io->submit([sleep = faulty_->sleep_fn(), stall = d.hang_seconds,
                       proceed = std::move(proceed)]() mutable {
        sleep(stall);
        proceed();
      });
    } else if (d.fail || d.torn || d.drop) {
      // fail and drop complete without launching an inner op, so they must
      // be deferred off the caller's stack (invariant 1); torn keeps its
      // historical deferral.
      ctx_.io->submit(std::move(proceed));
    } else {
      proceed();
    }
  }

  std::shared_ptr<FaultyCloud> faulty_;
  AsyncCloudPtr inner_;
  AsyncContext ctx_;
};

// The point of the whole layer: latency and bandwidth waits become wheel
// timers, so a 1-thread pool can have hundreds of delayed requests
// outstanding. Shares its LinkState with the blocking surface.
class AsyncLatentCloud final : public AsyncCloud {
 public:
  AsyncLatentCloud(std::shared_ptr<LatentCloud> latent, AsyncCloudPtr inner)
      : latent_(std::move(latent)), inner_(std::move(inner)) {}

  [[nodiscard]] CloudId id() const noexcept override { return latent_->id(); }
  [[nodiscard]] std::string name() const override { return latent_->name(); }

  AsyncHandle upload_async(const std::string& path, ByteSpan data,
                           StatusCb done) override {
    const LinkProfile& p = latent_->profile();
    // One combined wait (latency + uplink occupancy, reserved at launch)
    // instead of the blocking path's two sequential sleeps.
    const Duration wait =
        p.request_latency_sec +
        latent_->link()->reserve(data.size(), p.up_bytes_per_sec,
                                 /*upload_direction=*/true,
                                 RealClock::instance().now());
    auto state = std::make_shared<AsyncOpState>();
    auto chain = make_chain(state, &latent_->wheel());
    chain_delay(chain, &latent_->wheel(), wait,
                [inner = inner_, chain, state, path, data,
                 done = std::move(done)] {
                  chain_step(chain, [&] {
                    return inner->upload_async(
                        path, data, [state, done](Status s) {
                          complete(state, done, std::move(s));
                        });
                  });
                });
    return AsyncHandle(state);
  }

  AsyncHandle download_async(const std::string& path, BytesCb done) override {
    auto state = std::make_shared<AsyncOpState>();
    auto chain = make_chain(state, &latent_->wheel());
    chain_step(chain, [&] {
      return inner_->download_async(
          path, [latent = latent_, chain, state,
                 done = std::move(done)](Result<Bytes> r) mutable {
            const LinkProfile& p = latent->profile();
            const std::size_t size = r.is_ok() ? r.value().size() : 0;
            const Duration wait =
                p.request_latency_sec +
                latent->link()->reserve(size, p.down_bytes_per_sec,
                                        /*upload_direction=*/false,
                                        RealClock::instance().now());
            chain_delay(chain, &latent->wheel(), wait,
                        [state, done = std::move(done),
                         r = std::move(r)]() mutable {
                          complete(state, done, std::move(r));
                        });
          });
    });
    return AsyncHandle(state);
  }

  AsyncHandle create_dir_async(const std::string& path,
                               StatusCb done) override {
    return meta_op(std::move(done), [path](AsyncCloud& c, StatusCb cb) {
      return c.create_dir_async(path, std::move(cb));
    });
  }

  AsyncHandle list_async(const std::string& dir, ListCb done) override {
    auto state = std::make_shared<AsyncOpState>();
    auto chain = make_chain(state, &latent_->wheel());
    chain_delay(chain, &latent_->wheel(),
                latent_->profile().request_latency_sec,
                [inner = inner_, chain, state, dir, done = std::move(done)] {
                  chain_step(chain, [&] {
                    return inner->list_async(
                        dir, [state, done](Result<std::vector<FileInfo>> r) {
                          complete(state, done, std::move(r));
                        });
                  });
                });
    return AsyncHandle(state);
  }

  AsyncHandle remove_async(const std::string& path, StatusCb done) override {
    return meta_op(std::move(done), [path](AsyncCloud& c, StatusCb cb) {
      return c.remove_async(path, std::move(cb));
    });
  }

 private:
  template <typename Launch>
  AsyncHandle meta_op(StatusCb done, Launch launch) {
    auto state = std::make_shared<AsyncOpState>();
    auto chain = make_chain(state, &latent_->wheel());
    chain_delay(chain, &latent_->wheel(),
                latent_->profile().request_latency_sec,
                [inner = inner_, chain, state, done = std::move(done),
                 launch = std::move(launch)] {
                  chain_step(chain, [&] {
                    return launch(*inner, [state, done](Status s) {
                      complete(state, done, std::move(s));
                    });
                  });
                });
    return AsyncHandle(state);
  }

  std::shared_ptr<LatentCloud> latent_;
  AsyncCloudPtr inner_;
};

// --- AsyncRetryingCloud -----------------------------------------------------

// One retrying async call: the blocking half's RetryCall, driven from each
// completion. Attempts are armed one after another, each from the previous
// one's completion, so only `chain` needs synchronization.
template <typename R>
struct RetryOp {
  RetryOp(std::shared_ptr<RetryingCloud> cloud, Rng rng)
      : blocking(std::move(cloud)), retry(*blocking, rng) {}

  // Keeps the RetryCall's policy, breaker and counters alive.
  std::shared_ptr<RetryingCloud> blocking;
  RetryCall retry;
  OpStatePtr state = std::make_shared<AsyncOpState>();
  ChainPtr chain;
  AsyncCloudPtr inner;
  std::function<AsyncHandle(AsyncCloud&, std::function<void(R)>)> launch;
  std::function<void(R)> done;
  AsyncContext ctx;
};

template <typename R>
void retry_attempt(const std::shared_ptr<RetryOp<R>>& op);

template <typename R>
void retry_on_result(const std::shared_ptr<RetryOp<R>>& op, R r) {
  Status status = status_of(r);
  const std::optional<Duration> pause = op->retry.settle(status);
  if (!pause) {
    complete(op->state, op->done, status.is_ok() ? std::move(r) : R(status));
    return;
  }
  const SleepFn& sleep = op->blocking->sleep_fn();
  if (is_real_sleep(sleep)) {
    // A real pause is a thread-free wheel re-arm.
    chain_delay(op->chain, op->ctx.wheel, *pause, [op] { retry_attempt(op); });
  } else {
    // An injected (virtual-time) sleep must be CALLED for its side effects.
    op->ctx.io->submit([op, pause = *pause] {
      op->blocking->sleep_fn()(pause);
      retry_attempt(op);
    });
  }
}

template <typename R>
void retry_attempt(const std::shared_ptr<RetryOp<R>>& op) {
  Status admitted = op->retry.admit();
  if (!admitted.is_ok()) {
    complete(op->state, op->done, R(std::move(admitted)));
    return;
  }
  chain_step(op->chain, [&] {
    return op->launch(*op->inner,
                      [op](R r) { retry_on_result(op, std::move(r)); });
  });
}

// The retry rule of its blocking RetryingCloud (policy, breaker, counters),
// with backoff re-armed on the timer wheel instead of a sleeping thread.
class AsyncRetryingCloud final : public AsyncCloud {
 public:
  AsyncRetryingCloud(std::shared_ptr<RetryingCloud> blocking,
                     AsyncCloudPtr inner, AsyncContext ctx)
      : blocking_(std::move(blocking)),
        inner_(std::move(inner)),
        ctx_(std::move(ctx)),
        rng_(0x41535952ULL ^  // "ASYR"
             (0x9e3779b9ULL * (blocking_->id() + 1))) {}

  [[nodiscard]] CloudId id() const noexcept override {
    return blocking_->id();
  }
  [[nodiscard]] std::string name() const override {
    return blocking_->name();
  }

  AsyncHandle upload_async(const std::string& path, ByteSpan data,
                           StatusCb done) override {
    return start<Status>(std::move(done), [path, data](AsyncCloud& c,
                                                      StatusCb cb) {
      return c.upload_async(path, data, std::move(cb));
    });
  }

  AsyncHandle download_async(const std::string& path, BytesCb done) override {
    return start<Result<Bytes>>(std::move(done),
                                [path](AsyncCloud& c, BytesCb cb) {
                                  return c.download_async(path, std::move(cb));
                                });
  }

  AsyncHandle create_dir_async(const std::string& path,
                               StatusCb done) override {
    return start<Status>(std::move(done), [path](AsyncCloud& c, StatusCb cb) {
      return c.create_dir_async(path, std::move(cb));
    });
  }

  AsyncHandle list_async(const std::string& dir, ListCb done) override {
    return start<Result<std::vector<FileInfo>>>(
        std::move(done), [dir](AsyncCloud& c, ListCb cb) {
          return c.list_async(dir, std::move(cb));
        });
  }

  AsyncHandle remove_async(const std::string& path, StatusCb done) override {
    return start<Status>(std::move(done), [path](AsyncCloud& c, StatusCb cb) {
      return c.remove_async(path, std::move(cb));
    });
  }

 private:
  template <typename R, typename Launch>
  AsyncHandle start(std::function<void(R)> done, Launch launch) {
    Rng fork;
    {
      // Concurrent ops each retry with an independent jitter stream.
      std::lock_guard<std::mutex> lock(rng_mutex_);
      fork = rng_.fork();
    }
    auto op = std::make_shared<RetryOp<R>>(blocking_, fork);
    op->chain = make_chain(op->state, ctx_.wheel);
    op->inner = inner_;
    op->launch = std::move(launch);
    op->done = std::move(done);
    op->ctx = ctx_;
    // The first attempt is deferred so a breaker fast-fail never completes
    // on the caller's stack.
    ctx_.io->submit([op] { retry_attempt(op); });
    return AsyncHandle(op->state);
  }

  std::shared_ptr<RetryingCloud> blocking_;
  AsyncCloudPtr inner_;
  AsyncContext ctx_;
  std::mutex rng_mutex_;
  Rng rng_;
};

}  // namespace

// --- to_async ---------------------------------------------------------------

AsyncCloudPtr to_async(const CloudPtr& cloud, const AsyncContext& ctx) {
  if (auto rc = std::dynamic_pointer_cast<RetryingCloud>(cloud)) {
    return std::make_shared<AsyncRetryingCloud>(
        rc, to_async(rc->inner(), ctx), ctx);
  }
  if (auto mc = std::dynamic_pointer_cast<MeteredCloud>(cloud)) {
    return std::make_shared<AsyncMeteredCloud>(*mc, to_async(mc->inner(), ctx));
  }
  if (auto fc = std::dynamic_pointer_cast<FaultyCloud>(cloud)) {
    return std::make_shared<AsyncFaultyCloud>(fc, to_async(fc->inner(), ctx),
                                              ctx);
  }
  if (auto qc = std::dynamic_pointer_cast<QuotaCloud>(cloud)) {
    return std::make_shared<AsyncQuotaCloud>(qc, to_async(qc->inner(), ctx),
                                             ctx);
  }
  if (auto lc = std::dynamic_pointer_cast<LatentCloud>(cloud)) {
    return std::make_shared<AsyncLatentCloud>(lc, to_async(lc->inner(), ctx));
  }
  return std::make_shared<SyncAdapter>(cloud, ctx);
}

}  // namespace unidrive::cloud
