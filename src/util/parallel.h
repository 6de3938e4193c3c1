// Deterministic fan-out / ordered-merge: the one parallelism recipe this
// codebase uses (replication sweeps, experiment sweeps, fleet shard
// execution). N independent jobs run on up to `threads` workers, the calling
// thread among them; each worker claims the next index from one atomic
// counter and writes results[i], so completion order — the only
// nondeterministic quantity — never leaks into the output. threads <= 1
// degenerates to the plain serial loop, bit-for-bit (no thread is started).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <thread>
#include <type_traits>
#include <vector>

namespace demuxabr {

/// std::thread::hardware_concurrency(), never less than 1.
inline unsigned hardware_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Run job(i) for i in [0, count) and return the results indexed by i.
/// `job` must be safe to invoke concurrently from several threads (it may
/// capture shared *immutable* state); the result type must be
/// default-constructible and movable. `threads` 0 selects hardware_threads().
/// The serial loop stops at the first job that throws. Workers run every
/// job, then rethrow the exception of the lowest failing index.
template <typename Job>
auto fan_out_ordered(std::size_t count, int threads, Job&& job)
    -> std::vector<std::invoke_result_t<Job&, std::size_t>> {
  using Result = std::invoke_result_t<Job&, std::size_t>;
  // std::vector<bool> packs bits, so workers writing neighbouring indices
  // would race on one word.
  static_assert(!std::is_same_v<Result, bool>, "fan_out_ordered: bool result");
  std::vector<Result> results(count);
  const int effective = threads == 0 ? static_cast<int>(hardware_threads()) : threads;
  if (effective <= 1 || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) results[i] = job(i);
    return results;
  }
  std::vector<std::exception_ptr> errors(count);
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t i = next++; i < count; i = next++) {
      try {
        results[i] = job(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  {
    // jthreads join on scope exit, also when starting one of them throws.
    std::vector<std::jthread> workers;
    const auto started = std::min(static_cast<std::size_t>(effective), count);
    workers.reserve(started - 1);
    for (std::size_t w = 1; w < started; ++w) workers.emplace_back(work);
    work();
  }
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  return results;
}

}  // namespace demuxabr
