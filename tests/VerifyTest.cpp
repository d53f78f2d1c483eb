//===- tests/VerifyTest.cpp - Observer verification tests ------------------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//

#include "core/InstanceBuilder.h"
#include "nsa/Simulator.h"
#include "tests/TestConfigs.h"
#include "verify/Observers.h"

#include <gtest/gtest.h>

using namespace swa;
using namespace swa::verify;

TEST(Observers, R1SingleExecutionHoldsForAllSchedulers) {
  for (cfg::SchedulerKind K :
       {cfg::SchedulerKind::FPPS, cfg::SchedulerKind::FPNPS,
        cfg::SchedulerKind::EDF}) {
    auto Run = verifyTsSingleExecution(K, /*Ticks=*/5);
    ASSERT_TRUE(Run.ok()) << Run.error().message();
    EXPECT_TRUE(Run->Holds) << cfg::schedulerKindName(K);
    EXPECT_GT(Run->Mc.StatesExplored, 100u);
  }
}

TEST(Observers, R6WindowConfinementHolds) {
  auto Run = verifyTsWindowConfinement(cfg::SchedulerKind::FPPS, 5);
  ASSERT_TRUE(Run.ok()) << Run.error().message();
  EXPECT_TRUE(Run->Holds);
}

TEST(Observers, R2WcetAccountingHolds) {
  auto Run = verifyTaskWcet(/*Wcet=*/2, /*Deadline=*/5, /*Ticks=*/8);
  ASSERT_TRUE(Run.ok()) << Run.error().message();
  EXPECT_TRUE(Run->Holds);
}

TEST(Observers, R7NoLateExecutionHolds) {
  auto Run = verifyTaskNoLateExecution(2, 4, 8);
  ASSERT_TRUE(Run.ok()) << Run.error().message();
  EXPECT_TRUE(Run->Holds);
}

TEST(Observers, R5WaitsForDataHolds) {
  auto Run = verifyTaskWaitsForData(2, 5, 8);
  ASSERT_TRUE(Run.ok()) << Run.error().message();
  EXPECT_TRUE(Run->Holds);
}

TEST(Observers, R4LinkDelayExactForSeveralDelays) {
  for (int64_t Delay : {0, 1, 2, 4}) {
    auto Run = verifyLinkExactDelay(Delay, 5);
    ASSERT_TRUE(Run.ok()) << Run.error().message();
    EXPECT_TRUE(Run->Holds) << "delay " << Delay;
  }
}

TEST(Observers, BrokenSchedulerIsRejected) {
  // Negative control: the observers must be able to fail.
  auto Run = verifyBrokenTsIsCaught(5);
  ASSERT_TRUE(Run.ok()) << Run.error().message();
  EXPECT_FALSE(Run->Holds);
}

TEST(Observers, FullSuitePasses) {
  auto Suite = verifyComponentLibrary(/*Ticks=*/4);
  ASSERT_TRUE(Suite.ok()) << Suite.error().message();
  ASSERT_FALSE(Suite->empty());
  for (const VerificationOutcome &O : *Suite)
    EXPECT_TRUE(O.Holds) << O.Id << ": " << O.Description;
}

// R8: wakeup/sleep alternate exactly at the configured window boundaries —
// checked on the real core-scheduler automaton via a simulation trace.
TEST(Observers, R8WindowBoundariesExact) {
  cfg::Config C = testcfg::twoPartitionsWindows();
  auto Model = core::buildModel(C);
  ASSERT_TRUE(Model.ok()) << Model.error().message();
  nsa::Simulator Sim(*Model->Net);
  nsa::SimResult R = Sim.run();
  ASSERT_TRUE(R.ok()) << R.Error;

  // Expected: pA [0,5) and [10,15); pB [5,10) and [15,20).
  struct Evt {
    int64_t Time;
    int Chan;
  };
  std::vector<Evt> Wakes, Sleeps;
  for (const nsa::Event &E : R.Events) {
    // Window closings at t == L belong to this hyperperiod; the wrap's
    // re-openings at t == L belong to the next one.
    if (E.Channel >= Model->WakeupBase &&
        E.Channel < Model->WakeupBase + 2 && E.Time < 20)
      Wakes.push_back({E.Time, E.Channel - Model->WakeupBase});
    if (E.Channel >= Model->SleepBase && E.Channel < Model->SleepBase + 2 &&
        E.Time <= 20)
      Sleeps.push_back({E.Time, E.Channel - Model->SleepBase});
  }
  ASSERT_EQ(Wakes.size(), 4u);
  ASSERT_EQ(Sleeps.size(), 4u);
  EXPECT_EQ(Wakes[0].Time, 0);
  EXPECT_EQ(Wakes[0].Chan, 0);
  EXPECT_EQ(Sleeps[0].Time, 5);
  EXPECT_EQ(Sleeps[0].Chan, 0);
  EXPECT_EQ(Wakes[1].Time, 5);
  EXPECT_EQ(Wakes[1].Chan, 1);
  EXPECT_EQ(Sleeps[1].Time, 10);
  EXPECT_EQ(Sleeps[1].Chan, 1);
  EXPECT_EQ(Wakes[2].Time, 10);
  EXPECT_EQ(Wakes[2].Chan, 0);
  EXPECT_EQ(Sleeps[3].Time, 20);
}

int main(int argc, char **argv) {
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
