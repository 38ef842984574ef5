/**
 * @file
 * Host-time spans recorded by the benchmark around the public calls it
 * makes into each layer. A span has a name (`<module>.<call>`), start,
 * end and parent (the enclosing span on the same thread). Spans are
 * kept in memory and written once at the end as Chrome trace-event
 * JSON, which Perfetto opens like the simulator's own `src/trace`
 * output. Recording is off unless enable(true) was called, and then
 * costs one mutex-guarded append per span.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench::spans
{

void enable(bool on);
bool enabled();

/** Records one span from construction to destruction when enabled. */
class Scope
{
  public:
    explicit Scope(std::string name);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::int64_t startNs = 0;
};

/** Aggregate of every span with one name. */
struct Row
{
    std::string name;
    std::uint64_t count = 0;
    double totalMs = 0.0;
    /** Duration minus the time covered by child spans. */
    double selfMs = 0.0;
    std::vector<double> durationsMs;
};

/** One row per span name, sorted by self time, largest first. */
std::vector<Row> table();

/** Write every recorded span to @p path as Chrome trace-event JSON.
 *  @return false when the file could not be written */
bool writeChromeTrace(const std::string &path);

/** Write the self-time table to @p path as aligned text. */
bool writeTable(const std::string &path);

} // namespace perfbench::spans

#endif // PERFBENCH_SPANS_HH
