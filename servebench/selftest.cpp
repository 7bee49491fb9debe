// Self-test of the benchmark's statistics and tracer helpers.
//
//   python3 servebench/run.py --selftest
//
// Exits 0 when every check holds, 1 otherwise.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace {

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    if (!ok) {
        ++failures;
        std::printf("FAIL: %s\n", what.c_str());
    }
}

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-9;
}

std::vector<double>
ramp(size_t n)
{
    // 1..n in a scrambled order: the helpers must sort.
    std::vector<double> v;
    for (size_t i = 0; i < n; ++i)
        v.push_back(static_cast<double>((i * 7919) % n + 1));
    return v;
}

void
testTailRule()
{
    using servebench::tailPercentile;

    // 1000 samples: the 990th value has exactly 10 beyond it.
    servebench::Tail t = tailPercentile(ramp(1000));
    expect(near(t.value, 990.0), "n=1000 picks the 990th value");
    expect(t.beyond == 10, "n=1000 leaves 10 samples beyond");
    expect(near(t.percentile, 100.0 * 989.0 / 999.0),
           "n=1000 percentile is 100*989/999");
    expect(t.samples == 1000, "n=1000 sample count");

    // 100 samples: p ~ 89.9, never p99 (only one sample beyond it).
    t = tailPercentile(ramp(100));
    expect(near(t.value, 90.0) && t.beyond == 10, "n=100 picks the 90th");
    expect(t.percentile < 90.0, "n=100 tail is below p90");

    // Exactly 11 samples: the minimum is the only rank with 10 beyond.
    t = tailPercentile(ramp(11));
    expect(near(t.value, 1.0) && t.beyond == 10 && near(t.percentile, 0.0),
           "n=11 picks the minimum");

    // Fewer than 11: falls back to the minimum with its real count.
    t = tailPercentile(ramp(5));
    expect(near(t.value, 1.0) && t.beyond == 4 && t.samples == 5,
           "n=5 falls back to the minimum");

    // Ties are ranked by position: 10 beyond even when all equal.
    t = tailPercentile(std::vector<double>(50, 3.0));
    expect(near(t.value, 3.0) && t.beyond == 10, "ties keep 10 beyond");

    // A custom threshold.
    t = tailPercentile(ramp(200), 20);
    expect(near(t.value, 180.0) && t.beyond == 20, "min_beyond=20");

    t = tailPercentile({});
    expect(t.samples == 0 && t.value == 0.0, "empty sample");
}

void
testPercentile()
{
    using servebench::percentile;
    expect(near(percentile(ramp(101), 50.0), 51.0), "median of 1..101");
    expect(near(percentile(ramp(4), 50.0), 2.5), "median interpolates");
    expect(near(percentile(ramp(101), 99.0), 100.0), "p99 of 1..101");
    expect(near(percentile(ramp(10), 0.0), 1.0), "p0 is the minimum");
    expect(near(percentile(ramp(10), 100.0), 10.0), "p100 is the maximum");
    expect(percentile({}, 50.0) == 0.0, "empty percentile");
}

void
testSelfTime()
{
    servebench::Tracer tracer(true);
    servebench::Tracer::Thread *t = tracer.thread("main");
    {
        servebench::Scope outer(t, "outer");
        { servebench::Scope a(t, "inner", 1); }
        { servebench::Scope b(t, "inner", 2); }
    }
    expect(t->spans.size() == 3, "three spans recorded");
    expect(t->spans[1].parent == 0 && t->spans[2].parent == 0,
           "inner spans point at their parent");
    expect(t->spans[1].request == 1, "request id kept");
    const auto self = tracer.selfMs();
    const double outer_ms =
        (t->spans[0].end_us - t->spans[0].start_us) / 1000.0;
    expect(near(self.at("outer") + self.at("inner"), outer_ms),
           "self times add up to the root span");

    servebench::Tracer off(false);
    expect(off.thread("x") == nullptr, "a disabled tracer hands out null");
    { servebench::Scope s(nullptr, "noop"); }
    expect(off.spanCount() == 0, "a null scope records nothing");
}

} // namespace

int
main()
{
    testTailRule();
    testPercentile();
    testSelfTime();
    if (failures == 0)
        std::printf("servebench selftest: all checks passed\n");
    return failures == 0 ? 0 : 1;
}
