/**
 * @file
 * A steady-state full tick must not touch the heap.
 *
 * Every 100 µs tick the node rebuilds core pools, LLC requests,
 * memory-controller grants, and per-requestor merges. Those live in
 * scratch tables that are sized once and reused, so after warm-up a
 * full tick (event-driven path off) performs zero heap allocations.
 * This translation unit replaces the global operator new/delete with
 * counting versions; the replacement is private to this test
 * executable, so no other test binary is affected.
 */

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "exp/scenario.hh"

namespace {

std::atomic<uint64_t> g_allocations{0};

} // namespace

// The standard defines the array and nothrow forms in terms of these,
// so replacing them counts every allocation a new-expression makes.

void *
operator new(std::size_t n)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new(std::size_t n, std::align_val_t al)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    const auto a = static_cast<std::size_t>(al);
    // aligned_alloc wants a size that is a multiple of the alignment.
    if (void *p = std::aligned_alloc(a, (n + a - 1) / a * a))
        return p;
    throw std::bad_alloc();
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

using namespace kelp;

namespace {

constexpr int kWarmupTicks = 3000;
constexpr int kMeasuredTicks = 2000;

/**
 * Build cfg on the full-tick path, warm it up through the engine
 * (controllers included), then count the heap allocations made by
 * kMeasuredTicks consecutive Node::tick calls.
 */
void
expectAllocationFreeTicks(exp::RunConfig cfg, bool snc)
{
#ifndef NDEBUG
    // Debug builds recompute every cache hit to cross-check it, and
    // the LLC memo's recompute returns a fresh map by value.
    GTEST_SKIP() << "debug cross-checks allocate by design";
#endif
    cfg.eventDriven = false;
    exp::Scenario s = exp::buildScenario(cfg);
    ASSERT_EQ(s.node->sncEnabled(), snc);

    const sim::Time dt = s.engine->tickLength();
    s.engine->run(kWarmupTicks * dt);
    sim::Time now = s.engine->now();

    const mem::MemSystem &memory = s.node->memSystem();
    const uint64_t misses_before = memory.resolveCacheMisses();
    const uint64_t before = g_allocations.load();
    for (int i = 0; i < kMeasuredTicks; ++i) {
        s.node->tick(now, dt);
        now += dt;
    }
    const uint64_t allocations = g_allocations.load() - before;

    EXPECT_EQ(allocations, 0u)
        << static_cast<double>(allocations) / kMeasuredTicks
        << " allocations per full tick";
    // The window must cover the full resolve path (demand moved), not
    // only repeats of one cached flow set.
    EXPECT_GT(memory.resolveCacheMisses(), misses_before);
}

} // namespace

TEST(AllocationFreeTick, CounterSeesLibraryAllocations)
{
    // The replacement must be the one the simulator libraries link
    // against, or the zero counts below would prove nothing.
    const uint64_t before = g_allocations.load();
    mem::MemSystem system{mem::MemSystemConfig{}};
    EXPECT_GT(g_allocations.load() - before, 0u);
}

TEST(AllocationFreeTick, KelpCnn1WithStitchSncOn)
{
    exp::RunConfig cfg;
    cfg.ml = wl::MlWorkload::Cnn1;
    cfg.config = exp::ConfigKind::KP;
    cfg.cpu = wl::CpuWorkload::Stitch;
    cfg.cpuInstances = 4;
    expectAllocationFreeTicks(cfg, true);
}

TEST(AllocationFreeTick, BaselineClosedLoopRnn1WithStreamSncOff)
{
    exp::RunConfig cfg;
    cfg.ml = wl::MlWorkload::Rnn1;
    cfg.config = exp::ConfigKind::BL;
    cfg.cpu = wl::CpuWorkload::Stream;
    expectAllocationFreeTicks(cfg, false);
}
