#include "mpr/runtime.hpp"

#include <algorithm>
#include <exception>
#include <string>
#include <thread>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"

namespace focus::mpr {

// ---------------------------------------------------------------------------
// Comm
// ---------------------------------------------------------------------------

int Comm::size() const { return rt_->size(); }

const CostModel& Comm::cost() const { return rt_->cost(); }

void Comm::charge(double work_units) {
  FOCUS_ASSERT(work_units >= 0.0, "negative work charge");
  clock_ += rt_->cost().compute_cost(work_units);
}

void Comm::advance_vtime(double seconds) {
  FOCUS_ASSERT(seconds >= 0.0, "negative time advance");
  clock_ += seconds;
}

FaultDecision Comm::fault_point(const char* op_name) {
  if (!rt_->plan_active_) return {};
  ++op_seq_;
  FaultDecision d = rt_->plan().decide(rank_, op_seq_);
  if (d.crash) {
    throw RankCrashed("rank " + std::to_string(rank_) +
                      " crashed by fault plan at op " +
                      std::to_string(op_seq_) + " (" + op_name + ")");
  }
  return d;
}

void Comm::send(Rank dst, int tag, Message msg) {
  FOCUS_CHECK(dst >= 0 && dst < size(), "send to invalid rank");
  FOCUS_CHECK(dst != rank_, "send to self is not supported");
  const FaultDecision d = fault_point("send");
  const std::size_t bytes = msg.size_bytes();
  // Eager-protocol CPU overhead on the sender.
  clock_ += rt_->cost().alpha;
  Runtime::Envelope env{std::move(msg),
                        clock_ + rt_->cost().message_cost(bytes) + d.delay,
                        0};
  env.crc = env.payload.checksum();
  if (d.corrupt) rt_->corrupt_payload(env.payload, rank_, op_seq_);
  if (d.drop) return;  // sender pays the overhead; nothing is delivered
  if (d.duplicate) {
    Runtime::Envelope copy{env.payload, env.arrival_floor, env.crc};
    rt_->deliver(dst, rank_, tag, std::move(copy));
  }
  rt_->deliver(dst, rank_, tag, std::move(env));
}

Message Comm::recv(Rank src, int tag) {
  FOCUS_CHECK(src >= 0 && src < size(), "recv from invalid rank");
  FOCUS_CHECK(src != rank_, "recv from self is not supported");
  fault_point("recv");
  Runtime::Envelope env;
  rt_->take(rank_, src, tag, /*timed=*/false, &env);
  clock_ = std::max(clock_, env.arrival_floor);
  if (env.payload.checksum() != env.crc) {
    throw CorruptMessage("rank " + std::to_string(rank_) +
                         " received corrupt frame from rank " +
                         std::to_string(src) + " (tag " + std::to_string(tag) +
                         ")");
  }
  return std::move(env.payload);
}

RecvResult Comm::try_recv(Rank src, int tag, double timeout_vtime) {
  FOCUS_CHECK(src >= 0 && src < size(), "recv from invalid rank");
  FOCUS_CHECK(src != rank_, "recv from self is not supported");
  FOCUS_CHECK(timeout_vtime >= 0.0, "negative recv timeout");
  fault_point("recv");
  Runtime::Envelope env;
  if (rt_->take(rank_, src, tag, /*timed=*/true, &env) ==
      Runtime::TakeStatus::kTimeout) {
    clock_ += timeout_vtime;
    rt_->note_recovery(0, timeout_vtime);
    return {RecvStatus::kTimeout, Message{}};
  }
  clock_ = std::max(clock_, env.arrival_floor);
  if (env.payload.checksum() != env.crc) {
    return {RecvStatus::kCorrupt, std::move(env.payload)};
  }
  return {RecvStatus::kOk, std::move(env.payload)};
}

void Comm::note_retry() { rt_->note_recovery(1, 0.0); }

void Comm::charge_recovery(double seconds) {
  FOCUS_ASSERT(seconds >= 0.0, "negative recovery charge");
  clock_ += seconds;
  rt_->note_recovery(0, seconds);
}

void Comm::barrier() {
  fault_point("barrier");
  rt_->barrier_wait(*this);
}

std::vector<Message> Comm::gather(Message local, Rank root) {
  const int p = size();
  // Gathers are SPMD-ordered, so a per-rank sequence number matches across
  // ranks. Negative tags keep the internal space disjoint from user tags
  // (which must be >= 0).
  const int tag = -static_cast<int>(gather_seq_++ % 0x0ffffff) - 1;
  if (p == 1) {
    std::vector<Message> out;
    out.push_back(std::move(local));
    return out;
  }
  // Flat gather: leaves send directly to root. The tree latency that a
  // smarter gather would obtain is captured by arrival floors anyway (root
  // pays alpha+beta*b per child, serialized), which matches the master/worker
  // pattern of the paper's algorithms.
  if (rank_ != root) {
    send(root, tag, std::move(local));
    return {};
  }
  std::vector<Message> out(static_cast<std::size_t>(p));
  for (Rank r = 0; r < p; ++r) {
    if (r == root) {
      out[static_cast<std::size_t>(r)] = std::move(local);
    } else {
      out[static_cast<std::size_t>(r)] = recv(r, tag);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Runtime
// ---------------------------------------------------------------------------

Runtime::Runtime(int nranks, CostModel cost, FaultPlan plan)
    : nranks_(nranks),
      cost_(cost),
      plan_(std::move(plan)),
      plan_active_(!plan_.empty()) {
  FOCUS_CHECK(nranks >= 1, "runtime requires at least one rank");
  FOCUS_CHECK(nranks <= kMaxRanks,
              "runtime supports at most " + std::to_string(kMaxRanks) +
                  " ranks, got " + std::to_string(nranks));
  mailboxes_.reserve(static_cast<std::size_t>(nranks));
  for (int i = 0; i < nranks; ++i) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
  }
  rank_state_.assign(static_cast<std::size_t>(nranks), RankState::kRunning);
  awaited_.assign(static_cast<std::size_t>(nranks), {0, 0});
  timed_wait_.assign(static_cast<std::size_t>(nranks), 0);
  timeout_fired_.assign(static_cast<std::size_t>(nranks), 0);
}

void Runtime::deliver(Rank dst, Rank src, int tag, Envelope env) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stat_messages_;
  stat_bytes_ += env.payload.size_bytes();
  Mailbox& box = *mailboxes_[static_cast<std::size_t>(dst)];
  box.queues[{src, tag}].push_back(std::move(env));
  box.cv.notify_all();
}

void Runtime::corrupt_payload(Message& msg, Rank rank, std::uint64_t op) const {
  if (msg.bytes_.empty()) return;
  std::uint64_t state = plan_.seed ^ 0x7f4a7c15u;
  state = splitmix64(state) ^ (static_cast<std::uint64_t>(rank) + 1);
  state = splitmix64(state) ^ op;
  const std::size_t index =
      static_cast<std::size_t>(splitmix64(state) % msg.bytes_.size());
  msg.bytes_[index] ^= 0x5a;
}

void Runtime::note_recovery(std::uint64_t retries, double vtime) {
  std::lock_guard<std::mutex> lock(mu_);
  stat_retries_ += retries;
  stat_recovery_vtime_ += vtime;
}

void Runtime::detect_deadlock_locked() {
  for (Rank r = 0; r < nranks_; ++r) {
    const auto i = static_cast<std::size_t>(r);
    switch (rank_state_[i]) {
      case RankState::kRunning:
        return;  // someone can still move
      case RankState::kBlockedRecv: {
        if (timeout_fired_[i]) return;  // about to resume
        const Mailbox& box = *mailboxes_[i];
        const auto it = box.queues.find(awaited_[i]);
        if (it != box.queues.end() && !it->second.empty()) return;
        if (terminated_locked(awaited_[i].first)) return;  // wakes to throw
        break;  // genuinely starved
      }
      case RankState::kBlockedBarrier:
      case RankState::kDone:
      case RankState::kFailed:
        break;
    }
  }
  // Terminal configuration: no rank can make progress. Fire every starved
  // timed receive as one batch — the terminal configuration of a
  // deterministic program is unique, so this batch is deterministic too.
  for (Rank r = 0; r < nranks_; ++r) {
    const auto i = static_cast<std::size_t>(r);
    if (rank_state_[i] == RankState::kBlockedRecv && timed_wait_[i]) {
      timeout_fired_[i] = 1;
      mailboxes_[i]->cv.notify_all();
    }
  }
}

Runtime::TakeStatus Runtime::take(Rank self, Rank src, int tag, bool timed,
                                  Envelope* out) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto i = static_cast<std::size_t>(self);
  Mailbox& box = *mailboxes_[i];
  const auto key = std::make_pair(src, tag);
  for (;;) {
    auto it = box.queues.find(key);
    if (it != box.queues.end() && !it->second.empty()) {
      *out = std::move(it->second.front());
      it->second.pop_front();
      return TakeStatus::kGot;
    }
    if (terminated_locked(src)) {
      if (timed) return TakeStatus::kTimeout;
      throw RankFailed("rank " + std::to_string(self) +
                       " waits on terminated rank " + std::to_string(src) +
                       " (tag " + std::to_string(tag) + ")");
    }
    rank_state_[i] = RankState::kBlockedRecv;
    awaited_[i] = key;
    timed_wait_[i] = timed ? 1 : 0;
    timeout_fired_[i] = 0;
    detect_deadlock_locked();
    box.cv.wait(lock, [&] {
      if (timeout_fired_[i]) return true;
      const auto it2 = box.queues.find(key);
      if (it2 != box.queues.end() && !it2->second.empty()) return true;
      return terminated_locked(src);
    });
    rank_state_[i] = RankState::kRunning;
    timed_wait_[i] = 0;
    if (timeout_fired_[i]) {
      timeout_fired_[i] = 0;
      return TakeStatus::kTimeout;
    }
  }
}

void Runtime::release_barrier_locked() {
  barrier_release_clock_ = barrier_max_clock_ + cost_.tree_latency(nranks_);
  barrier_count_ = 0;
  barrier_max_clock_ = 0.0;
  ++barrier_generation_;
  for (Rank r = 0; r < nranks_; ++r) {
    const auto i = static_cast<std::size_t>(r);
    // Mark waiters runnable here so a concurrent deadlock check never sees a
    // released-but-not-yet-awake rank as blocked.
    if (rank_state_[i] == RankState::kBlockedBarrier) {
      rank_state_[i] = RankState::kRunning;
    }
  }
  barrier_cv_.notify_all();
}

void Runtime::barrier_wait(Comm& comm) {
  if (nranks_ == 1) return;
  std::unique_lock<std::mutex> lock(mu_);
  barrier_max_clock_ = std::max(barrier_max_clock_, comm.clock_);
  const std::uint64_t my_generation = barrier_generation_;
  if (++barrier_count_ >= active_count_) {
    release_barrier_locked();
  } else {
    rank_state_[static_cast<std::size_t>(comm.rank_)] =
        RankState::kBlockedBarrier;
    detect_deadlock_locked();
    barrier_cv_.wait(lock,
                     [&] { return barrier_generation_ != my_generation; });
  }
  comm.clock_ = barrier_release_clock_;
}

void Runtime::finish_rank(Rank rank, bool failed) {
  std::lock_guard<std::mutex> lock(mu_);
  rank_state_[static_cast<std::size_t>(rank)] =
      failed ? RankState::kFailed : RankState::kDone;
  --active_count_;
  // A barrier some ranks already entered may now be complete without the
  // terminated rank.
  if (active_count_ > 0 && barrier_count_ >= active_count_) {
    release_barrier_locked();
  }
  // Wake peers blocked on this rank so they observe the termination.
  for (auto& box : mailboxes_) box->cv.notify_all();
  detect_deadlock_locked();
}

RunStats Runtime::run(const std::function<void(Comm&)>& fn) {
  Timer wall;
  std::vector<Comm> comms;
  comms.reserve(static_cast<std::size_t>(nranks_));
  for (Rank r = 0; r < nranks_; ++r) comms.push_back(Comm(this, r));

  {
    std::lock_guard<std::mutex> lock(mu_);
    stat_messages_ = 0;
    stat_bytes_ = 0;
    stat_retries_ = 0;
    stat_recovery_vtime_ = 0.0;
    rank_state_.assign(static_cast<std::size_t>(nranks_), RankState::kRunning);
    std::fill(timed_wait_.begin(), timed_wait_.end(), 0);
    std::fill(timeout_fired_.begin(), timeout_fired_.end(), 0);
    active_count_ = nranks_;
    barrier_count_ = 0;
    barrier_max_clock_ = 0.0;
    for (auto& box : mailboxes_) box->queues.clear();
  }

  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(nranks_));
  if (nranks_ == 1) {
    try {
      fn(comms[0]);
    } catch (...) {
      errors[0] = std::current_exception();
    }
    finish_rank(0, errors[0] != nullptr);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(nranks_));
    for (Rank r = 0; r < nranks_; ++r) {
      threads.emplace_back([&, r] {
        try {
          fn(comms[static_cast<std::size_t>(r)]);
        } catch (...) {
          errors[static_cast<std::size_t>(r)] = std::current_exception();
        }
        finish_rank(r, errors[static_cast<std::size_t>(r)] != nullptr);
      });
    }
    for (auto& t : threads) t.join();
  }

  // Error aggregation: with an active fault plan, RankFailed is the expected
  // injected outcome and is only counted; everything else is a real error.
  int ranks_failed = 0;
  std::vector<std::pair<Rank, std::exception_ptr>> real_errors;
  for (Rank r = 0; r < nranks_; ++r) {
    const auto& e = errors[static_cast<std::size_t>(r)];
    if (!e) continue;
    bool injected = false;
    if (plan_active_) {
      try {
        std::rethrow_exception(e);
      } catch (const RankFailed&) {
        injected = true;
      } catch (...) {
      }
    }
    if (injected) {
      ++ranks_failed;
    } else {
      real_errors.emplace_back(r, e);
    }
  }
  if (real_errors.size() == 1) {
    std::rethrow_exception(real_errors.front().second);
  }
  if (real_errors.size() > 1) {
    std::string what = std::to_string(real_errors.size()) +
                       " ranks failed; primary is lowest rank";
    for (const auto& [r, e] : real_errors) {
      what += "; rank " + std::to_string(r) + ": ";
      try {
        std::rethrow_exception(e);
      } catch (const std::exception& ex) {
        what += ex.what();
      } catch (...) {
        what += "unknown exception";
      }
    }
    throw Error(what);
  }

  RunStats stats;
  stats.ranks_failed = ranks_failed;
  stats.rank_vtime.reserve(static_cast<std::size_t>(nranks_));
  for (const Comm& c : comms) {
    stats.rank_vtime.push_back(c.vtime());
    stats.makespan = std::max(stats.makespan, c.vtime());
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats.messages = stat_messages_;
    stats.bytes = stat_bytes_;
    stats.retries = stat_retries_;
    stats.recovery_vtime = stat_recovery_vtime_;
  }
  stats.wall_seconds = wall.seconds();
  return stats;
}

RunStats Runtime::execute(int nranks, const std::function<void(Comm&)>& fn,
                          CostModel cost, FaultPlan plan) {
  Runtime rt(nranks, cost, std::move(plan));
  return rt.run(fn);
}

}  // namespace focus::mpr
