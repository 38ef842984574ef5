/**
 * @file
 * Job specs as the HTTP API accepts them: strict parsing and
 * validation of POST /run bodies, /run query parameters and POST
 * /sweep bodies. Every bad input throws FatalError with a message the
 * front end returns as a 400.
 */

#ifndef DYNASPAM_SERVE_SPEC_HH
#define DYNASPAM_SERVE_SPEC_HH

#include <string>
#include <vector>

#include "common/json.hh"
#include "runner/job.hh"

namespace dynaspam::serve
{

/**
 * Parse + strictly validate one job-spec JSON object
 * ({"workload": ..., "mode": ..., "trace_length": ..., ...}).
 * @throws FatalError with a descriptive message -> 400
 */
runner::Job jobFromSpecJson(const json::Value &value);

/**
 * Apply /run query parameters ("?fidelity=sampled&warmup_insts=N") on
 * top of the body spec. The query wins over the body, so a client can
 * pick the fidelity tier per request without rewriting its specs.
 * @throws FatalError on an unknown parameter or a bad value -> 400
 */
void applyRunQuery(runner::Job &job, const std::string &target);

/** Parsed form of a POST /sweep request body. */
struct SweepRequest
{
    std::string name;               ///< sweep name ("custom" for jobs[])
    std::vector<runner::Job> jobs;
};

/**
 * Parse + validate a POST /sweep body: either a named sweep
 * ({"sweep": "fig8", "workloads": [...], "scale": N, ...}) or an
 * explicit {"jobs": [...]} list.
 * @throws FatalError with a descriptive message -> 400
 */
SweepRequest parseSweepBody(const std::string &body);

/** @return true when @p s is a job hash: 16 lowercase hex digits. */
bool isJobHash(const std::string &s);

} // namespace dynaspam::serve

#endif // DYNASPAM_SERVE_SPEC_HH
