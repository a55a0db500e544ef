/**
 * @file
 * served_sweep: a real `dfi-serve --workers 2` daemon (memory cache
 * only, no --cache-dir) driven closed-loop by two client connections
 * over its Unix-socket NDJSON protocol.
 *
 * The request stream is generated from the workload seed: small
 * sampled campaigns (15 injections) over sha on marss-x86 and djpeg
 * on gem5-arm, six components and campaign seeds, plus exact
 * repeats.  A session starts a daemon, pings it until it
 * answers (set-up), runs the whole stream, reads the daemon's --stats
 * counters and peak RSS, and shuts it down.  A run measures a fixed
 * number of sessions for its run time, each against a cold daemon;
 * extra cold start-ups give setup_s a median over several samples.
 *
 * Afterwards every distinct request is run locally through
 * InjectionCampaign; every served response must equal that local run
 * byte for byte.
 */

#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>

#include "common/netio.hh"
#include "common/rng.hh"
#include "inject/service.hh"
#include "layers.hh"
#include "ndjson_phases.hh"
#include "provenance.hh"
#include "workloads.hh"

namespace perfbench
{

using dfi::inject::CampaignConfig;
using dfi::inject::ServiceRequest;
using dfi::inject::ServiceResponse;
using dfi::json::Value;

namespace
{

constexpr unsigned kClients = 2;
constexpr std::size_t kRequests = 100;
/**
 * Run time budgeted for one session.  A session of the stream takes
 * 25-35 s on a 4-vCPU x86-64 host, and the local check of every
 * distinct request about 15 s more per run.
 */
constexpr double kSessionSeconds = 40.0;
constexpr std::size_t kSetupSamples = 13;
constexpr int kReplyTimeoutMs = 120000;

/**
 * The seed-generated request stream (the same for every session).
 * Each block of twelve fresh requests covers every program x
 * component pair once, in a seed-shuffled order, so the seed changes
 * the order, the campaign seeds and which requests repeat, but not the
 * mix.  Every seventh request repeats a seed-chosen earlier one.
 */
std::vector<CampaignConfig>
requestStream(std::uint64_t seed)
{
    struct Program
    {
        const char *benchmark;
        const char *core;
    };
    static const Program kPrograms[] = {{"sha", "marss-x86"},
                                        {"djpeg", "gem5-arm"}};
    static const char *kComponents[] = {"int_regfile", "l1d", "l1i",
                                        "lsq", "issue_queue", "l2"};
    std::vector<std::pair<std::size_t, std::size_t>> pairs;
    for (std::size_t p = 0; p < 2; ++p) {
        for (std::size_t c = 0; c < 6; ++c)
            pairs.emplace_back(p, c);
    }
    dfi::Rng rng(seed ^ 0x5e7e5e7eull);
    std::vector<CampaignConfig> stream;
    std::size_t fresh = 0;
    while (stream.size() < kRequests) {
        if (stream.size() % 7 == 6) {
            stream.push_back(stream[rng.nextBounded(stream.size())]);
            continue;
        }
        if (fresh % pairs.size() == 0) {
            for (std::size_t i = pairs.size() - 1; i > 0; --i)
                std::swap(pairs[i], pairs[rng.nextBounded(i + 1)]);
        }
        const auto [p, c] = pairs[fresh++ % pairs.size()];
        CampaignConfig cfg;
        cfg.benchmark = kPrograms[p].benchmark;
        cfg.coreName = kPrograms[p].core;
        cfg.component = kComponents[c];
        cfg.numInjections = 15;
        cfg.seed = rng.nextBounded(1000000);
        stream.push_back(cfg);
    }
    return stream;
}

/** One request/response exchange as the client saw it. */
struct Exchange
{
    std::string error; //!< transport or protocol failure
    double written = 0.0;
    double decoded = 0.0;
    std::vector<StreamLine> lines;
    ServiceResponse response;
};

Exchange
roundTrip(const std::string &socket_path, const ServiceRequest &request)
{
    Exchange out;
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (fd < 0 || ::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                            sizeof(addr)) != 0) {
        out.error = "connect: " + std::string(std::strerror(errno));
        if (fd >= 0)
            ::close(fd);
        return out;
    }
    out.written = now();
    if (!dfi::netio::writeLine(fd, encodeServiceRequest(request))) {
        out.error = "write failed";
        ::close(fd);
        return out;
    }
    dfi::netio::LineReader reader(fd, std::size_t{256} << 20,
                                  kReplyTimeoutMs);
    for (;;) {
        std::string line;
        const dfi::netio::ReadResult got = reader.next(line);
        if (got != dfi::netio::ReadResult::Line) {
            out.error = got == dfi::netio::ReadResult::Timeout
                            ? "reply timed out"
                            : "connection closed before the response";
            break;
        }
        out.lines.push_back(StreamLine{now(), line});
        Value parsed;
        std::string error;
        if (!dfi::json::parse(line, parsed, error)) {
            out.error = "bad reply line: " + error;
            break;
        }
        const Value *kind = parsed.find("kind");
        if (kind != nullptr && kind->kind() == dfi::json::Kind::String &&
            kind->asString() == dfi::inject::kServiceProgressKind)
            continue;
        if (!decodeServiceResponse(parsed, out.response, error))
            out.error = "bad response: " + error;
        out.decoded = now();
        break;
    }
    ::close(fd);
    return out;
}

/** A dfi-serve daemon child process. */
class Daemon
{
  public:
    Daemon(const RunContext &ctx, const std::string &name)
        : socket_(ctx.runDir + "/" + name + ".sock")
    {
        ::unlink(socket_.c_str());
        const std::string log = ctx.runDir + "/" + name + ".log";
        pid_ = ::fork();
        if (pid_ == 0) {
            const int fd =
                ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
            if (fd >= 0) {
                ::dup2(fd, 1);
                ::dup2(fd, 2);
            }
            ::execl(ctx.serveBinary.c_str(), ctx.serveBinary.c_str(),
                    "--socket", socket_.c_str(), "--workers", "2",
                    static_cast<char *>(nullptr));
            ::_exit(127);
        }
    }

    ~Daemon() { stop(); }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    const std::string &socket() const { return socket_; }
    int pid() const { return pid_; }

    /** Ask the daemon to drain and exit; kill it if it does not. */
    void stop()
    {
        if (pid_ <= 0)
            return;
        ServiceRequest request;
        request.op = "shutdown";
        roundTrip(socket_, request);
        if (!waitFor(20.0)) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, nullptr, 0);
        }
        pid_ = -1;
        ::unlink(socket_.c_str());
    }

  private:
    bool waitFor(double seconds)
    {
        const double deadline = now() + seconds;
        while (now() < deadline) {
            if (::waitpid(pid_, nullptr, WNOHANG) == pid_)
                return true;
            ::usleep(2000);
        }
        return false;
    }

    std::string socket_;
    pid_t pid_ = -1;
};

struct RequestRecord
{
    std::size_t index = 0;
    Exchange exchange;
};

struct Session
{
    double wall = 0.0;
    double setup = 0.0;
    double peakRssMb = 0.0;
    std::vector<RequestRecord> requests;
    Value stats;
    std::string error;
};

std::uint64_t
statCount(const Value &stats, const char *key)
{
    const Value *cache = stats.find("cache");
    const Value *value = cache ? cache->find(key) : nullptr;
    return value != nullptr && value->isNumber() ? value->asUint() : 0;
}

/** Ping until the daemon answers; false after 30 s of silence. */
bool
awaitPing(const Daemon &daemon, double start)
{
    ServiceRequest ping;
    ping.op = "ping";
    for (;;) {
        const Exchange reply = roundTrip(daemon.socket(), ping);
        if (reply.error.empty() && reply.response.ok)
            return true;
        if (now() - start > 30.0)
            return false;
        ::usleep(100);
    }
}

/**
 * Daemon start until the first successful ping, of a cold daemon
 * pinned (with this client thread) to `cpu`.
 */
double
coldStart(RunContext &ctx, int cpu)
{
    const PinnedToCpu pin(cpu);
    const double start = now();
    Daemon daemon(ctx, "serve" + std::to_string(::getpid()));
    if (!awaitPing(daemon, start))
        ctx.operation("daemon did not answer a ping within 30 s");
    return now() - start;
}

Session
runSession(RunContext &ctx, const std::vector<CampaignConfig> &stream,
           std::int64_t root)
{
    Session session;
    const double start = now();
    Daemon daemon(ctx, "serve" + std::to_string(::getpid()));
    if (!awaitPing(daemon, start)) {
        session.error = "daemon did not answer a ping within 30 s";
        return session;
    }
    session.setup = now() - start;
    if (root >= 0)
        ctx.tracer.add("service.setup", start, start + session.setup, root);

    std::atomic<std::size_t> next{0};
    std::mutex mu;
    auto client = [&](unsigned id) {
        for (;;) {
            const std::size_t index = next.fetch_add(1);
            if (index >= stream.size())
                return;
            ServiceRequest request;
            request.client = "client" + std::to_string(id);
            request.config = stream[index];
            RequestRecord record{index, roundTrip(daemon.socket(), request)};
            std::lock_guard<std::mutex> lock(mu);
            session.requests.push_back(std::move(record));
        }
    };
    std::vector<std::thread> clients;
    for (unsigned i = 0; i < kClients; ++i)
        clients.emplace_back(client, i);
    for (std::thread &thread : clients)
        thread.join();

    const double tail = now();
    ServiceRequest stats;
    stats.op = "stats";
    const Exchange reply = roundTrip(daemon.socket(), stats);
    if (reply.error.empty() && reply.response.ok)
        session.stats = reply.response.extra;
    session.peakRssMb = peakRssMbOf(daemon.pid());
    daemon.stop();
    session.wall = now() - start;
    if (root >= 0)
        ctx.tracer.add("service.teardown", tail, now(), root);
    return session;
}

/**
 * Local runs of every distinct request, on three threads.  A run that
 * fails is counted as a failed operation and left out of the map.
 */
std::map<std::size_t, dfi::inject::CampaignResult>
localRuns(RunContext &ctx, const std::vector<CampaignConfig> &stream,
          const std::vector<std::size_t> &distinct)
{
    // Prepared state depends on program and core only, so one
    // preparation per program serves all its requests.
    std::map<std::string, std::shared_ptr<const dfi::inject::PreparedCampaign>>
        prepared;
    for (const std::size_t index : distinct) {
        CampaignConfig cfg = stream[index];
        std::shared_ptr<const dfi::inject::PreparedCampaign> &prep =
            prepared[cfg.benchmark + "/" + cfg.coreName];
        if (prep == nullptr)
            prep = dfi::inject::InjectionCampaign(cfg).prepared();
    }
    std::map<std::size_t, dfi::inject::CampaignResult> results;
    std::mutex mu;
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
        for (;;) {
            const std::size_t at = next.fetch_add(1);
            if (at >= distinct.size())
                return;
            CampaignConfig cfg = stream[distinct[at]];
            cfg.telemetryCapture = true;
            try {
                dfi::inject::InjectionCampaign campaign(cfg);
                campaign.adoptPrepared(
                    prepared.at(cfg.benchmark + "/" + cfg.coreName));
                dfi::inject::CampaignResult result = campaign.run();
                std::lock_guard<std::mutex> lock(mu);
                results.emplace(distinct[at], std::move(result));
            } catch (const std::exception &err) {
                ctx.operation("local run of request " +
                              std::to_string(distinct[at]) + ": " +
                              err.what());
            }
        }
    };
    std::vector<std::thread> threads;
    for (int i = 0; i < 3; ++i)
        threads.emplace_back(worker);
    for (std::thread &thread : threads)
        thread.join();
    return results;
}

/** First index of every distinct config in the stream. */
std::vector<std::size_t>
distinctRequests(const std::vector<CampaignConfig> &stream,
                 std::vector<std::size_t> &firstOf)
{
    std::vector<std::size_t> distinct;
    firstOf.assign(stream.size(), 0);
    std::map<std::string, std::size_t> seen;
    for (std::size_t i = 0; i < stream.size(); ++i) {
        const auto [it, fresh] = seen.emplace(
            encodeServiceRequest(ServiceRequest{"campaign", "", stream[i]})
                .dump(),
            i);
        if (fresh)
            distinct.push_back(i);
        firstOf[i] = it->second;
    }
    return distinct;
}

/**
 * Gate every served response against the local run of its config,
 * and every local run against the committed reference.
 */
void
verify(RunContext &ctx, const std::vector<CampaignConfig> &stream,
       const std::vector<Session> &sessions)
{
    std::vector<std::size_t> first_of;
    const std::vector<std::size_t> distinct =
        distinctRequests(stream, first_of);
    const auto local = localRuns(ctx, stream, distinct);
    const dfi::inject::Parser parser;
    for (const std::size_t index : distinct) {
        CellResult result;
        result.cell = stream[index].benchmark + "/" +
                      stream[index].coreName + "/" +
                      stream[index].component;
        const auto run = local.find(index);
        if (run == local.end())
            continue;
        summarizeCell(run->second, result);
        ctx.gate("r" + std::to_string(index), result);
    }
    for (const Session &session : sessions) {
        if (!session.error.empty())
            ctx.operation(session.error);
        for (const RequestRecord &record : session.requests) {
            const Exchange &ex = record.exchange;
            const auto run = local.find(first_of[record.index]);
            std::string problem = ex.error;
            if (problem.empty() && !ex.response.ok)
                problem = "not ok: " + ex.response.error;
            if (problem.empty() && run == local.end())
                problem = "no local run to compare with";
            if (problem.empty() &&
                (ex.response.counts.counts !=
                     run->second.classify(parser).counts ||
                 ex.response.telemetryRuns != run->second.telemetryRuns ||
                 ex.response.telemetrySummary !=
                     run->second.telemetrySummary))
                problem = "served artifacts differ from the local run";
            if (!problem.empty())
                problem = "request " + std::to_string(record.index) + ": " +
                          problem;
            ctx.operation(problem);
        }
    }
}

/** Client-side phase split of every request of `session`. */
void
splitSession(const Session &session, ServiceTotals &service,
             std::vector<double> *latencies, Tracer *tracer,
             std::int64_t root)
{
    for (const RequestRecord &record : session.requests) {
        const Exchange &ex = record.exchange;
        if (!ex.error.empty() || !ex.response.ok)
            continue;
        const PhaseSplit split = splitPhases(ex.written, ex.lines, ex.decoded);
        if (!split.ok)
            continue;
        if (latencies != nullptr)
            latencies->push_back(split.total);
        service.queueS.push_back(split.queue);
        service.executeS.push_back(split.execute);
        service.responseS.push_back(split.response);
        service.responseBytes += split.responseBytes;
        ++service.responses;
        if (ex.response.cacheSource != "none")
            ++service.cacheHitResponses;
        if (tracer != nullptr) {
            const std::int64_t span = tracer->add(
                "service.request", ex.written, ex.decoded, root, record.index);
            const double first = ex.written + split.queue;
            const double last = first + split.execute;
            tracer->add("service.queue", ex.written, first, span, record.index);
            tracer->add("service.execute", first, last, span, record.index);
            tracer->add("service.response", last, ex.decoded, span,
                        record.index);
        }
    }
    service.hits += statCount(session.stats, "hits");
    service.misses += statCount(session.stats, "misses");
    service.coalesced += statCount(session.stats, "coalesced");
    service.evictions += statCount(session.stats, "evictions");
}

std::uint64_t
sessionRuns(const Session &session)
{
    std::uint64_t runs = 0;
    for (const RequestRecord &record : session.requests)
        runs += record.exchange.response.runsTotal;
    return runs;
}

void
untraced(RunContext &ctx, const std::vector<CampaignConfig> &stream)
{
    // A fixed count, so every run of one run time times the same
    // work whatever the host's speed.
    const auto count = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(ctx.seconds / kSessionSeconds));
    std::vector<Session> sessions;
    while (sessions.size() < count)
        sessions.push_back(runSession(ctx, stream, -1));
    const std::vector<int> cpus = allowedCpus();
    std::vector<double> walls, setups, rss, latencies;
    while (setups.size() + sessions.size() < kSetupSamples)
        setups.push_back(coldStart(ctx, cpus[setups.size() % cpus.size()]));
    verify(ctx, stream, sessions);

    double busy = 0.0;
    std::uint64_t runs = 0, requests = 0;
    ServiceTotals service;
    for (const Session &session : sessions) {
        walls.push_back(session.wall);
        setups.push_back(session.setup);
        rss.push_back(session.peakRssMb);
        busy += session.wall - session.setup;
        runs += sessionRuns(session);
        requests += session.requests.size();
        splitSession(session, service, &latencies, nullptr, -1);
    }
    const Percentile p50 = percentile(latencies, 50);
    const Percentile p90 = percentile(latencies, 90);
    if (!p90.reportable())
        ctx.notes.push_back("request_p90_s has only " +
                            std::to_string(p90.beyond) +
                            " samples beyond it");
    ctx.notes.push_back("sessions " + std::to_string(sessions.size()) +
                        ", request samples " +
                        std::to_string(latencies.size()) + ", beyond p90 " +
                        std::to_string(p90.beyond));
    ctx.metrics.add("wall_s", median(walls), "s");
    ctx.metrics.add("setup_s", median(setups), "s");
    ctx.metrics.add("runs_per_s", static_cast<double>(runs) / busy, "1/s");
    ctx.metrics.add("peak_rss_mb", median(rss), "MiB");
    ctx.metrics.add("requests_per_s", static_cast<double>(requests) / busy,
                    "1/s");
    ctx.metrics.add("request_p50_s", p50.value, "s");
    ctx.metrics.add("request_p90_s", p90.value, "s");
}

void
traced(RunContext &ctx, const std::vector<CampaignConfig> &stream)
{
    // An untraced session of the same stream, for the overhead.
    const Session plain = runSession(ctx, stream, -1);
    const std::int64_t root = ctx.tracer.begin("workload", -1);
    const Session session = runSession(ctx, stream, root);
    ctx.tracer.end(root);
    ServiceTotals service;
    splitSession(session, service, nullptr, &ctx.tracer, root);
    const double unaccounted = ctx.tracer.unaccountedFrac(root);
    verify(ctx, stream, {plain, session});

    // The campaign layers below the service: one traced local pass of
    // the first request of each program.
    LayerTotals layers;
    const std::int64_t local_root = ctx.tracer.begin("local", -1);
    std::map<std::string, bool> seen;
    for (CampaignConfig cfg : stream) {
        if (seen[cfg.benchmark])
            continue;
        seen[cfg.benchmark] = true;
        cfg.telemetryCapture = true;
        tracedCell(cfg, cfg.benchmark, ctx.tracer, local_root, layers);
    }
    ctx.tracer.end(local_root);
    const std::int64_t probe_root = ctx.tracer.begin("probe", -1);
    const ProbeResult probe = layerProbe(ctx.tracer, probe_root);
    ctx.tracer.end(probe_root);
    // Tracing overhead: the traced session's wall time against the
    // untraced one's.
    addLayerMetrics(ctx.metrics, layers, ctx.tracer.selfTimes(), 1.0, probe,
                    service, unaccounted,
                    plain.wall <= 0.0 ? 0.0 : session.wall / plain.wall - 1.0);
}

} // namespace

void
runServedSweep(RunContext &ctx)
{
    const std::vector<CampaignConfig> stream = requestStream(ctx.seed);
    if (ctx.collect != nullptr) {
        verify(ctx, stream, {});
        return;
    }
    if (ctx.trace)
        traced(ctx, stream);
    else
        untraced(ctx, stream);
}

} // namespace perfbench
