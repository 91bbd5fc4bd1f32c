// Bounded per-destination log of the tile frames a rank has sent — the
// survivor half of the recovery protocol.
//
// Owner-computes recovery re-executes the dead rank's entire partition on
// a replacement, but the replacement still needs the tile payloads its
// tasks consume from *other* ranks' partitions — payloads the survivors
// sent to the dead incarnation and will never re-produce. Every Data frame
// is therefore logged at post time (a shared_ptr alias of the payload the
// comm layer ships, so the log costs pointers, not copies) and replayed
// into the re-wired link when the launcher announces the replacement.
// Entries are retained until the DAG completes: recovery can strike at any
// task, so any sent tile may still be needed. The cap turns a pathological
// memory profile into a typed RecoveryImpossible failure instead of an OOM
// kill — once the cap trips, the log stops recording and replay for any
// rank reports the gap.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "net/message.hpp"

namespace hqr::fault {

class SentTileLog {
 public:
  using Payload = net::Payload;

  SentTileLog(int nranks, long long max_bytes);

  // Records one sent frame (payload as shipped, including its task id
  // header). Returns false — and records nothing — once the byte cap has
  // tripped; the log is then marked overflowed for good.
  bool append(int dest, int producer_task, Payload payload);

  // Invokes fn for every frame sent to `dest`, in send order. Returns
  // false when the log overflowed (the replay would be incomplete — the
  // caller must escalate instead of replaying a partial history).
  bool replay(int dest,
              const std::function<void(int producer_task, const Payload&)>&
                  fn) const;

  long long bytes() const;
  long long frames() const;
  bool overflowed() const;

 private:
  struct Entry {
    int producer_task;
    Payload payload;
  };

  mutable std::mutex mu_;
  std::vector<std::vector<Entry>> per_dest_;
  long long bytes_ = 0;
  long long frames_ = 0;
  long long max_bytes_;
  bool overflowed_ = false;
};

}  // namespace hqr::fault
