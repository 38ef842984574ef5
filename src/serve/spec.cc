#include "serve/spec.hh"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "common/logging.hh"
#include "runner/runner.hh"
#include "workloads/workload.hh"

namespace dynaspam::serve
{

namespace
{

/** Upper bound for warmup_insts in specs and query strings. */
constexpr std::uint64_t kMaxWarmupInsts = 1000000000;

/** @return v.at(key).asUint(), range-checked into [1, max]. */
unsigned
specUint(const json::Value &v, const std::string &key, unsigned fallback,
         unsigned max)
{
    const json::Value *field = v.find(key);
    if (!field)
        return fallback;
    std::uint64_t raw = field->asUint();
    if (raw < 1 || raw > max)
        fatal("job spec field \"", key, "\" out of range [1, ", max,
              "]: ", raw);
    return unsigned(raw);
}

/** Parse a decimal warmup_insts token (0 = no warmup is allowed). */
std::uint64_t
parseWarmupToken(const std::string &token)
{
    if (token.empty() ||
        token.find_first_not_of("0123456789") != std::string::npos)
        fatal("warmup_insts is not a decimal number: \"", token, "\"");
    std::uint64_t raw = std::strtoull(token.c_str(), nullptr, 10);
    if (raw > kMaxWarmupInsts)
        fatal("warmup_insts out of range [0, ", kMaxWarmupInsts,
              "]: ", raw);
    return raw;
}

/** Reject any key of @p object not in @p known. */
template <std::size_t N>
void
rejectUnknown(const json::Value &object, const char *const (&known)[N],
              const char *what)
{
    for (const auto &kv : object.asObject()) {
        bool ok = std::any_of(std::begin(known), std::end(known),
                              [&](const char *k) { return kv.first == k; });
        if (!ok)
            fatal("unknown ", what, " field \"", kv.first, "\"");
    }
}

std::string
knownWorkload(const std::string &name)
{
    std::string canon = workloads::canonicalWorkloadName(name);
    const auto &names = workloads::allWorkloadNames();
    if (std::find(names.begin(), names.end(), canon) == names.end())
        fatal("unknown workload \"", name, "\"");
    return canon;
}

} // namespace

runner::Job
jobFromSpecJson(const json::Value &value)
{
    if (!value.isObject())
        fatal("job spec must be a JSON object");
    static const char *const known[] = {"workload",    "mode",
                                        "trace_length", "num_fabrics",
                                        "scale",       "warmup_insts",
                                        "fidelity"};
    rejectUnknown(value, known, "job spec");

    runner::Job job;
    const json::Value *workload = value.find("workload");
    if (!workload)
        fatal("job spec is missing \"workload\"");
    job.workload = knownWorkload(workload->asString());

    if (const json::Value *mode = value.find("mode"))
        job.mode = runner::parseMode(mode->asString());
    else
        job.mode = sim::SystemMode::AccelSpec;
    job.traceLength = specUint(value, "trace_length", 32, 4096);
    job.numFabrics = specUint(value, "num_fabrics", 1, 64);
    job.scale = specUint(value, "scale", 1, 64);
    // warmup_insts legitimately takes 0 (no warmup), so it skips the
    // [1, max] helper.
    if (const json::Value *warmup = value.find("warmup_insts")) {
        std::uint64_t raw = warmup->asUint();
        if (raw > kMaxWarmupInsts)
            fatal("job spec field \"warmup_insts\" out of range [0, ",
                  kMaxWarmupInsts, "]: ", raw);
        job.warmupInsts = raw;
    }
    if (const json::Value *fidelity = value.find("fidelity"))
        job.fidelity = runner::parseFidelity(fidelity->asString());
    return job;
}

void
applyRunQuery(runner::Job &job, const std::string &target)
{
    const std::size_t qpos = target.find('?');
    if (qpos == std::string::npos)
        return;
    std::istringstream is(target.substr(qpos + 1));
    std::string part;
    while (std::getline(is, part, '&')) {
        if (part.empty())
            continue;
        const std::size_t eq = part.find('=');
        const std::string key = part.substr(0, eq);
        const std::string val =
            eq == std::string::npos ? "" : part.substr(eq + 1);
        if (key == "fidelity")
            job.fidelity = runner::parseFidelity(val);
        else if (key == "warmup_insts")
            job.warmupInsts = parseWarmupToken(val);
        else
            fatal("unknown /run query parameter \"", key, "\"");
    }
}

SweepRequest
parseSweepBody(const std::string &body)
{
    SweepRequest req;
    json::Value parsed = json::Value::parse(body);
    if (!parsed.isObject())
        fatal("sweep request must be a JSON object");

    if (const json::Value *list = parsed.find("jobs")) {
        for (const auto &kv : parsed.asObject())
            if (kv.first != "jobs")
                fatal("unknown sweep request field \"", kv.first,
                      "\" (explicit \"jobs\" lists take no other fields)");
        req.name = "custom";
        for (const json::Value &spec : list->asArray())
            req.jobs.push_back(jobFromSpecJson(spec));
        if (req.jobs.empty())
            fatal("\"jobs\" list is empty");
        return req;
    }

    static const char *const known[] = {"sweep", "workloads", "scale",
                                        "trace_length"};
    rejectUnknown(parsed, known, "sweep request");
    const json::Value *sweep = parsed.find("sweep");
    if (!sweep)
        fatal("sweep request needs \"sweep\" or \"jobs\"");
    req.name = sweep->asString();

    std::vector<std::string> workloadNames;
    if (const json::Value *wl = parsed.find("workloads")) {
        for (const json::Value &w : wl->asArray())
            workloadNames.push_back(knownWorkload(w.asString()));
        if (workloadNames.empty())
            fatal("\"workloads\" list is empty");
    } else {
        workloadNames = workloads::allWorkloadNames();
    }
    unsigned scale = specUint(parsed, "scale", 1, 64);
    unsigned traceLength = specUint(parsed, "trace_length", 32, 4096);
    req.jobs = runner::sweepJobs(req.name, workloadNames, scale,
                                 traceLength);
    return req;
}

bool
isJobHash(const std::string &s)
{
    return s.size() == 16 &&
           std::all_of(s.begin(), s.end(), [](char c) {
               return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
           });
}

} // namespace dynaspam::serve
