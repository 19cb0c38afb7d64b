/**
 * @file
 * Tests for annealing schedules.
 */

#include <gtest/gtest.h>

#include "ising/schedule.hpp"

using namespace ising;
using machine::AnnealSchedule;
using machine::ScheduleKind;

TEST(Schedule, LinearEndpoints)
{
    const AnnealSchedule s(ScheduleKind::Linear, 0.1, 0.0);
    EXPECT_DOUBLE_EQ(s.at(0, 11), 0.1);
    EXPECT_DOUBLE_EQ(s.at(10, 11), 0.0);
    EXPECT_NEAR(s.at(5, 11), 0.05, 1e-12);
}

TEST(Schedule, GeometricDecaysFasterThanLinearMidway)
{
    const AnnealSchedule lin(ScheduleKind::Linear, 1.0, 0.01);
    const AnnealSchedule geo(ScheduleKind::Geometric, 1.0, 0.01);
    EXPECT_LT(geo.at(50, 101), lin.at(50, 101));
    EXPECT_NEAR(geo.at(0, 101), 1.0, 1e-12);
    EXPECT_NEAR(geo.at(100, 101), 0.01, 1e-12);
}

TEST(Schedule, CosineEndpointsAndMonotone)
{
    const AnnealSchedule cos(ScheduleKind::Cosine, 0.2, 0.0);
    EXPECT_NEAR(cos.at(0, 101), 0.2, 1e-12);
    EXPECT_NEAR(cos.at(100, 101), 0.0, 1e-12);
    double prev = cos.at(0, 101);
    for (std::size_t s = 1; s <= 100; ++s) {
        const double cur = cos.at(s, 101);
        ASSERT_LE(cur, prev + 1e-12);
        prev = cur;
    }
}

TEST(Schedule, ConstantIgnoresProgress)
{
    const AnnealSchedule c(ScheduleKind::Constant, 0.05, 0.0);
    EXPECT_DOUBLE_EQ(c.at(0, 100), 0.05);
    EXPECT_DOUBLE_EQ(c.at(99, 100), 0.05);
}

TEST(Schedule, SingleStepHorizonReturnsStart)
{
    for (auto kind : {ScheduleKind::Linear, ScheduleKind::Geometric,
                      ScheduleKind::Cosine}) {
        const AnnealSchedule s(kind, 0.3, 0.0);
        EXPECT_DOUBLE_EQ(s.at(0, 1), 0.3);
    }
}
