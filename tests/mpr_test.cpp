// Tests for the message-passing runtime: correctness of point-to-point,
// the gather, and the deterministic virtual-time cost model.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "common/error.hpp"
#include "mpr/runtime.hpp"

namespace focus::mpr {
namespace {

// ---------------------------------------------------------------------------
// Message pack/unpack
// ---------------------------------------------------------------------------

TEST(Message, ScalarRoundTrip) {
  Message m;
  m.pack<std::int32_t>(-42);
  m.pack<double>(3.5);
  m.pack<std::uint8_t>(7);
  EXPECT_EQ(m.unpack<std::int32_t>(), -42);
  EXPECT_DOUBLE_EQ(m.unpack<double>(), 3.5);
  EXPECT_EQ(m.unpack<std::uint8_t>(), 7);
  EXPECT_TRUE(m.fully_consumed());
}

TEST(Message, StringAndVectorRoundTrip) {
  Message m;
  m.pack_string("hello focus");
  m.pack_vector<std::uint32_t>({1, 2, 3});
  m.pack_vector<double>({});
  EXPECT_EQ(m.unpack_string(), "hello focus");
  EXPECT_EQ(m.unpack_vector<std::uint32_t>(), (std::vector<std::uint32_t>{1, 2, 3}));
  EXPECT_TRUE(m.unpack_vector<double>().empty());
}

TEST(Message, UnpackPastEndThrows) {
  Message m;
  m.pack<std::uint16_t>(1);
  m.unpack<std::uint16_t>();
  EXPECT_THROW(m.unpack<std::uint8_t>(), Error);
}

TEST(Message, SizeBytesTracksPayload) {
  Message m;
  EXPECT_EQ(m.size_bytes(), 0u);
  m.pack<std::uint64_t>(1);
  EXPECT_EQ(m.size_bytes(), 8u);
  m.pack_string("abc");  // 8-byte length + 3 bytes
  EXPECT_EQ(m.size_bytes(), 19u);
}

// ---------------------------------------------------------------------------
// Point-to-point
// ---------------------------------------------------------------------------

TEST(Runtime, RingPassesToken) {
  const int p = 5;
  std::vector<int> received(p, -1);
  Runtime::execute(p, [&](Comm& comm) {
    const int next = (comm.rank() + 1) % p;
    const int prev = (comm.rank() + p - 1) % p;
    Message m;
    m.pack<int>(comm.rank());
    comm.send(next, 0, std::move(m));
    Message in = comm.recv(prev, 0);
    received[comm.rank()] = in.unpack<int>();
  });
  for (int r = 0; r < p; ++r) {
    EXPECT_EQ(received[r], (r + p - 1) % p);
  }
}

TEST(Runtime, MessagesMatchedBySourceAndTag) {
  std::vector<int> got(2, 0);
  Runtime::execute(3, [&](Comm& comm) {
    if (comm.rank() == 1) {
      Message a, b;
      a.pack<int>(111);
      b.pack<int>(222);
      comm.send(0, 7, std::move(a));
      comm.send(0, 9, std::move(b));
    } else if (comm.rank() == 2) {
      Message c;
      c.pack<int>(333);
      comm.send(0, 7, std::move(c));
    } else {
      // Receive in an order unrelated to send order.
      EXPECT_EQ(comm.recv(2, 7).unpack<int>(), 333);
      EXPECT_EQ(comm.recv(1, 9).unpack<int>(), 222);
      EXPECT_EQ(comm.recv(1, 7).unpack<int>(), 111);
      got[0] = 1;
    }
  });
  EXPECT_EQ(got[0], 1);
}

TEST(Runtime, FifoPerSourceAndTag) {
  Runtime::execute(2, [&](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 10; ++i) {
        Message m;
        m.pack<int>(i);
        comm.send(1, 0, std::move(m));
      }
    } else {
      for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(comm.recv(0, 0).unpack<int>(), i);
      }
    }
  });
}

TEST(Runtime, SelfSendRejected) {
  EXPECT_THROW(Runtime::execute(2,
                                [&](Comm& comm) {
                                  Message m;
                                  if (comm.rank() == 0) {
                                    comm.send(0, 0, std::move(m));
                                  } else {
                                    // Rank 1 must not block forever waiting on
                                    // a barrier with a crashed peer.
                                  }
                                }),
               Error);
}

TEST(Runtime, ExceptionPropagatesFromWorkerRank) {
  EXPECT_THROW(Runtime::execute(4,
                                [&](Comm& comm) {
                                  if (comm.rank() == 2) {
                                    FOCUS_THROW("rank 2 failed");
                                  }
                                }),
               Error);
}

// ---------------------------------------------------------------------------
// Collectives
// ---------------------------------------------------------------------------

class CollectiveTest : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveTest, GatherCollectsInRankOrder) {
  const int p = GetParam();
  std::vector<int> collected;
  Runtime::execute(p, [&](Comm& comm) {
    Message m;
    m.pack<int>(comm.rank() * 10);
    auto all = comm.gather(std::move(m), 0);
    if (comm.rank() == 0) {
      ASSERT_EQ(all.size(), static_cast<std::size_t>(p));
      for (auto& msg : all) collected.push_back(msg.unpack<int>());
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
  ASSERT_EQ(collected.size(), static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) EXPECT_EQ(collected[r], r * 10);
}

TEST_P(CollectiveTest, ConsecutiveCollectivesDoNotInterfere) {
  // Back-to-back gathers to rotating roots, interleaved with barriers: each
  // round's root must see exactly that round's payloads, in rank order.
  const int p = GetParam();
  Runtime::execute(p, [&](Comm& comm) {
    for (int round = 0; round < 5; ++round) {
      const Rank root = round % p;
      for (int k = 0; k < 2; ++k) {
        Message m;
        m.pack<int>(1000 * round + 10 * comm.rank() + k);
        auto all = comm.gather(std::move(m), root);
        if (comm.rank() == root) {
          ASSERT_EQ(all.size(), static_cast<std::size_t>(p));
          for (int r = 0; r < p; ++r) {
            EXPECT_EQ(all[static_cast<std::size_t>(r)].unpack<int>(),
                      1000 * round + 10 * r + k);
          }
        } else {
          EXPECT_TRUE(all.empty());
        }
      }
      comm.barrier();
    }
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, CollectiveTest,
                         ::testing::Values(1, 2, 3, 4, 7, 8, 13));

// ---------------------------------------------------------------------------
// Virtual time
// ---------------------------------------------------------------------------

TEST(VirtualTime, ChargeAdvancesClockByGamma) {
  CostModel cm;
  cm.gamma = 1e-6;
  Runtime rt(1, cm);
  const auto stats = rt.run([&](Comm& comm) {
    comm.charge(1000.0);
    EXPECT_DOUBLE_EQ(comm.vtime(), 1e-3);
  });
  EXPECT_DOUBLE_EQ(stats.makespan, 1e-3);
}

TEST(VirtualTime, MakespanIsMaxOverRanks) {
  const auto stats = Runtime::execute(4, [&](Comm& comm) {
    comm.charge(1000.0 * (comm.rank() + 1));
  });
  EXPECT_DOUBLE_EQ(stats.makespan, stats.rank_vtime[3]);
  EXPECT_GT(stats.rank_vtime[3], stats.rank_vtime[0]);
}

TEST(VirtualTime, MessageCausalityPropagatesClock) {
  CostModel cm;
  cm.alpha = 1.0;  // exaggerated for the test
  cm.beta = 0.0;
  Runtime rt(2, cm);
  rt.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.advance_vtime(10.0);
      Message m;
      m.pack<int>(1);
      comm.send(1, 0, std::move(m));
    } else {
      comm.recv(0, 0);
      // Sender clock (10) + send overhead alpha (1) + transfer alpha (1).
      EXPECT_GE(comm.vtime(), 12.0);
    }
  });
}

TEST(VirtualTime, BarrierSynchronizesToMax) {
  std::vector<double> after(3);
  Runtime::execute(3, [&](Comm& comm) {
    comm.charge(1e6 * comm.rank());
    comm.barrier();
    after[comm.rank()] = comm.vtime();
  });
  EXPECT_DOUBLE_EQ(after[0], after[1]);
  EXPECT_DOUBLE_EQ(after[1], after[2]);
  EXPECT_GE(after[0], 1e6 * 2 * CostModel{}.gamma);
}

TEST(VirtualTime, DeterministicAcrossRuns) {
  auto run_once = [] {
    return Runtime::execute(6, [](Comm& comm) {
      // A little SPMD program with mixed communication.
      comm.charge(100.0 * (comm.rank() + 1));
      Message mine;
      mine.pack<int>(comm.rank());
      auto all = comm.gather(std::move(mine), 0);
      for (auto& msg : all) comm.charge(msg.unpack<int>());
      comm.barrier();
      if (comm.rank() > 0) {
        Message m;
        m.pack<int>(comm.rank());
        comm.send(0, 1, std::move(m));
      } else {
        for (Rank r = 1; r < comm.size(); ++r) comm.recv(r, 1);
      }
    });
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.bytes, b.bytes);
  ASSERT_EQ(a.rank_vtime.size(), b.rank_vtime.size());
  for (std::size_t i = 0; i < a.rank_vtime.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.rank_vtime[i], b.rank_vtime[i]);
  }
}

TEST(VirtualTime, WorkSplitAcrossRanksReducesMakespan) {
  // The foundational speedup property: the same total work charged across
  // more ranks yields a smaller makespan.
  const double total_work = 1e6;
  auto makespan_with = [&](int ranks) {
    return Runtime::execute(ranks,
                            [&](Comm& comm) {
                              comm.charge(total_work / comm.size());
                              comm.barrier();
                            })
        .makespan;
  };
  const double t1 = makespan_with(1);
  const double t4 = makespan_with(4);
  const double t8 = makespan_with(8);
  EXPECT_GT(t1 / t4, 3.5);
  EXPECT_GT(t1 / t8, 6.5);
}

TEST(RunStats, CountsMessagesAndBytes) {
  const auto stats = Runtime::execute(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      Message m;
      m.pack_vector<std::uint8_t>(std::vector<std::uint8_t>(100, 1));
      comm.send(1, 0, std::move(m));
    } else {
      comm.recv(0, 0);
    }
  });
  EXPECT_EQ(stats.messages, 1u);
  EXPECT_EQ(stats.bytes, 108u);  // 8-byte length prefix + 100 payload
}

TEST(Runtime, SingleRankNeedsNoThreads) {
  int calls = 0;
  const auto stats = Runtime::execute(1, [&](Comm& comm) {
    ++calls;
    comm.barrier();          // no-op with one rank
    comm.charge(10.0);
    Message m;
    m.pack<int>(5);
    auto all = comm.gather(std::move(m), 0);
    ASSERT_EQ(all.size(), 1u);
    EXPECT_EQ(all[0].unpack<int>(), 5);
  });
  EXPECT_EQ(calls, 1);
  EXPECT_GT(stats.makespan, 0.0);
}

TEST(Runtime, InvalidConstruction) {
  EXPECT_THROW(Runtime(0), Error);
  EXPECT_THROW(Runtime(-3), Error);
  // One OS thread per rank: the bound is checked before any thread exists
  // (construction starts none; run() would start one per rank).
  EXPECT_THROW(Runtime(kMaxRanks + 1), Error);
  EXPECT_THROW(Runtime::execute(kMaxRanks + 1, [](Comm&) { FAIL(); }), Error);
  EXPECT_NO_THROW(Runtime{kMaxRanks});
}

}  // namespace
}  // namespace focus::mpr
