// Discrete-event simulation core.
//
// This is the substrate that stands in for the paper's EC2/Linode testbed:
// a deterministic event loop with a virtual clock. All network, VNF and
// controller activity in the reproduction is driven from this queue, so
// every experiment is exactly reproducible from its seed.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace ncfn::netsim {

/// Simulated time in seconds.
using Time = double;

/// Handle for cancelling a scheduled event.
using EventId = std::uint64_t;

class Simulator {
 public:
  [[nodiscard]] Time now() const { return now_; }

  /// Schedule `fn` to run `delay` seconds from now (delay >= 0).
  EventId schedule(Time delay, std::function<void()> fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Schedule `fn` at absolute time `t` (t >= now()).
  EventId schedule_at(Time t, std::function<void()> fn);

  /// Cancel a pending event. Cancelling an already-fired or unknown id is
  /// a no-op (the common race when a timer and its cause fire together).
  void cancel(EventId id) { cancelled_.push_back(id); }

  /// Run events until the queue drains or the clock passes `t_end`.
  /// Returns the number of events executed.
  std::size_t run_until(Time t_end);

  /// Run until the queue drains entirely.
  std::size_t run() { return run_until(kForever); }

  static constexpr Time kForever = 1e18;

 private:
  struct Event {
    Time at;
    EventId id;
    std::function<void()> fn;
    bool operator>(const Event& o) const {
      if (at != o.at) return at > o.at;
      return id > o.id;  // FIFO among simultaneous events
    }
  };

  bool is_cancelled(EventId id);

  Time now_ = 0;
  EventId next_id_ = 1;
  // Min-heap on (at, id) kept with std::push_heap/pop_heap, so a pop can
  // move the event (and its callable's captures) out instead of copying.
  std::vector<Event> queue_;
  std::vector<EventId> cancelled_;
};

}  // namespace ncfn::netsim
