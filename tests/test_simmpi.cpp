#include "simmpi/comm.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace bltc::simmpi {
namespace {

TEST(SimMpi, RanksSeeCorrectRankAndSize) {
  std::vector<int> seen(4, -1);
  run_ranks(4, [&](Comm& comm) {
    EXPECT_EQ(comm.size(), 4);
    seen[static_cast<std::size_t>(comm.rank())] = comm.rank();
  });
  for (int r = 0; r < 4; ++r) EXPECT_EQ(seen[static_cast<std::size_t>(r)], r);
}

TEST(SimMpi, BarrierSynchronizesPhases) {
  // Every rank increments a counter, barriers, then checks the counter is
  // complete — fails (flakily) if the barrier leaks.
  std::atomic<int> counter{0};
  run_ranks(8, [&](Comm& comm) {
    counter.fetch_add(1);
    comm.barrier();
    EXPECT_EQ(counter.load(), 8);
    comm.barrier();
    counter.fetch_add(1);
    comm.barrier();
    EXPECT_EQ(counter.load(), 16);
  });
}

TEST(SimMpi, OneSidedGetReadsRemoteData) {
  run_ranks(4, [&](Comm& comm) {
    // Each rank exposes 10 values tagged with its rank id.
    std::vector<double> local(10, static_cast<double>(comm.rank()));
    Window<double> win(comm, std::span<double>(local));
    // Pull from every other rank and verify the tag.
    for (int rr = 0; rr < comm.size(); ++rr) {
      if (rr == comm.rank()) continue;
      std::vector<double> buf(10);
      win.get(rr, 0, buf);
      for (const double v : buf) {
        EXPECT_DOUBLE_EQ(v, static_cast<double>(rr));
      }
    }
  });
}

TEST(SimMpi, GetWithOffsetAndPartialLength) {
  run_ranks(2, [&](Comm& comm) {
    std::vector<double> local(100);
    std::iota(local.begin(), local.end(),
              static_cast<double>(1000 * comm.rank()));
    Window<double> win(comm, std::span<double>(local));
    const int other = 1 - comm.rank();
    std::vector<double> buf(5);
    win.get(other, 42, buf);
    for (std::size_t i = 0; i < 5; ++i) {
      EXPECT_DOUBLE_EQ(buf[i], 1000.0 * other + 42.0 + static_cast<double>(i));
    }
  });
}

TEST(SimMpi, PutWritesRemoteData) {
  std::vector<std::vector<double>> storage(2, std::vector<double>(4, 0.0));
  run_ranks(2, [&](Comm& comm) {
    Window<double> win(
        comm, std::span<double>(storage[static_cast<std::size_t>(comm.rank())]));
    const int other = 1 - comm.rank();
    const std::vector<double> payload{comm.rank() + 1.0, comm.rank() + 2.0};
    win.put(other, 1, payload);
    comm.barrier();  // make the put visible before the owner reads
    const auto& mine = storage[static_cast<std::size_t>(comm.rank())];
    EXPECT_DOUBLE_EQ(mine[1], other + 1.0);
    EXPECT_DOUBLE_EQ(mine[2], other + 2.0);
    comm.barrier();  // keep the window alive until both ranks verified
  });
}

TEST(SimMpi, OutOfRangeAccessThrows) {
  run_ranks(2, [&](Comm& comm) {
    std::vector<double> local(10, 0.0);
    Window<double> win(comm, std::span<double>(local));
    const int other = 1 - comm.rank();
    std::vector<double> buf(5);
    EXPECT_THROW(win.get(other, 8, buf), std::out_of_range);
    EXPECT_THROW(win.put(other, 6, std::span<const double>(buf)),
                 std::out_of_range);
    comm.barrier();  // don't tear down while the peer is testing
  });
}

TEST(SimMpi, SizeAtReportsRemoteExposure) {
  run_ranks(3, [&](Comm& comm) {
    // Rank r exposes r+1 elements.
    std::vector<double> local(static_cast<std::size_t>(comm.rank()) + 1, 0.0);
    Window<double> win(comm, std::span<double>(local));
    for (int rr = 0; rr < comm.size(); ++rr) {
      EXPECT_EQ(win.size_at(rr), static_cast<std::size_t>(rr) + 1);
    }
    comm.barrier();
  });
}

TEST(SimMpi, GetAccountingTracksBytesAndOps) {
  std::vector<std::size_t> bytes(3, 0), gets(3, 0);
  run_ranks(3, [&](Comm& comm) {
    std::vector<double> local(100, 1.0);
    Window<double> win(comm, std::span<double>(local));
    std::vector<double> buf(50);
    for (int rr = 0; rr < comm.size(); ++rr) {
      if (rr == comm.rank()) continue;
      win.get(rr, 0, buf);
    }
    bytes[static_cast<std::size_t>(comm.rank())] = comm.bytes_gotten();
    gets[static_cast<std::size_t>(comm.rank())] = comm.gets_issued();
  });
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(bytes[static_cast<std::size_t>(r)], 2 * 50 * sizeof(double));
    EXPECT_EQ(gets[static_cast<std::size_t>(r)], 2u);
  }
}

TEST(SimMpi, MultipleWindowsKeepDistinctIdentities) {
  run_ranks(2, [&](Comm& comm) {
    std::vector<double> a(4, 1.0 + comm.rank());
    std::vector<double> b(4, 100.0 + comm.rank());
    Window<double> wa(comm, std::span<double>(a));
    Window<double> wb(comm, std::span<double>(b));
    const int other = 1 - comm.rank();
    std::vector<double> buf(4);
    wa.get(other, 0, buf);
    EXPECT_DOUBLE_EQ(buf[0], 1.0 + other);
    wb.get(other, 0, buf);
    EXPECT_DOUBLE_EQ(buf[0], 100.0 + other);
  });
}

TEST(SimMpi, ConcurrentGetsFromManyRanksAreConsistent) {
  // Stress: all ranks hammer rank 0's window concurrently; every read must
  // see the full, untorn payload.
  run_ranks(8, [&](Comm& comm) {
    std::vector<double> local(1000, static_cast<double>(comm.rank()));
    Window<double> win(comm, std::span<double>(local));
    std::vector<double> buf(1000);
    for (int iter = 0; iter < 20; ++iter) {
      win.get(0, 0, buf);
      for (const double v : buf) ASSERT_DOUBLE_EQ(v, 0.0);
    }
  });
}

TEST(SimMpi, ExceptionInRankPropagates) {
  EXPECT_THROW(run_ranks(2,
                         [](Comm& comm) {
                           if (comm.rank() == 1) {
                             throw std::runtime_error("rank failure");
                           }
                         }),
               std::runtime_error);
}

TEST(SimMpi, SingleRankDegenerateCase) {
  run_ranks(1, [](Comm& comm) {
    EXPECT_EQ(comm.size(), 1);
    comm.barrier();  // must not deadlock
    std::vector<double> local(5, 7.0);
    Window<double> win(comm, std::span<double>(local));
    std::vector<double> buf(5);
    win.get(0, 0, buf);  // self-get is legal
    EXPECT_DOUBLE_EQ(buf[0], 7.0);
  });
}

TEST(SimMpi, InvalidContextSizeThrows) {
  EXPECT_THROW(Context ctx(0), std::invalid_argument);
}

TEST(SimMpi, RankTeamKeepsWindowsAliveAcrossRuns) {
  // The persistent-team contract behind DistSolver: a window registered in
  // one bulk-synchronous phase (run) serves one-sided gets in a later
  // phase, and its exposure reads the owner's *current* data — the window
  // views live storage, it does not snapshot. Teardown is a third
  // collective phase.
  RankTeam team(3);
  std::vector<std::vector<double>> storage(3);
  std::vector<std::unique_ptr<Window<double>>> windows(3);

  team.run([&](Comm& comm) {
    const std::size_t r = static_cast<std::size_t>(comm.rank());
    storage[r].assign(4, static_cast<double>(comm.rank()));
    windows[r] = std::make_unique<Window<double>>(
        comm, std::span<double>(storage[r]));
  });

  team.run([&](Comm& comm) {
    const std::size_t r = static_cast<std::size_t>(comm.rank());
    storage[r][0] = 100.0 + static_cast<double>(comm.rank());
    comm.barrier();  // all owners updated before anyone fetches
    const int peer = (comm.rank() + 1) % comm.size();
    std::vector<double> buf(4);
    windows[r]->get(peer, 0, buf);
    EXPECT_DOUBLE_EQ(buf[0], 100.0 + peer);  // current data, not a snapshot
    EXPECT_DOUBLE_EQ(buf[1], static_cast<double>(peer));
  });

  // Accounting persists across runs too.
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(team.context().gets_issued(r), 1u);
    EXPECT_EQ(team.context().bytes_gotten(r), 4 * sizeof(double));
  }

  team.run([&](Comm& comm) {
    windows[static_cast<std::size_t>(comm.rank())].reset();  // collective
  });
}

TEST(SimMpi, TeamRecoversOnlyFromQuiescentTransientFailures) {
  // After every rank has joined, a retry-safe (TransientError) failure
  // clears the abort when the windows and creation cursors are consistent;
  // any other failure leaves the communicator poisoned.
  const auto two_barriers = [](Comm& comm) {
    comm.barrier();
    comm.barrier();
  };
  {  // Transient and quiescent: the next collective runs.
    RankTeam team(2);
    EXPECT_THROW(team.run([](Comm& comm) {
      if (comm.rank() == 0) throw FailpointError("test.site", 1);
      comm.barrier();
    }),
                 FailpointError);
    EXPECT_FALSE(team.context().aborted());
    EXPECT_NO_THROW(team.run(two_barriers));
  }
  {  // Not retry-safe: poisoned for good.
    RankTeam team(2);
    EXPECT_THROW(team.run([](Comm& comm) {
      if (comm.rank() == 0) throw std::runtime_error("fatal");
      comm.barrier();
    }),
                 std::runtime_error);
    EXPECT_TRUE(team.context().aborted());
    EXPECT_THROW(team.run(two_barriers), CommAborted);
  }
  {  // Transient, but only rank 1 created a window: the cursors disagree
     // and the half-registered window stays, so the team stays poisoned.
    RankTeam team(2);
    std::vector<double> storage(4);
    EXPECT_THROW(team.run([&](Comm& comm) {
      if (comm.rank() == 0) throw FailpointError("test.site", 1);
      Window<double> w(comm, std::span<double>(storage));
    }),
                 FailpointError);
    EXPECT_TRUE(team.context().aborted());
    EXPECT_THROW(team.run(two_barriers), CommAborted);
  }
}

}  // namespace
}  // namespace bltc::simmpi
