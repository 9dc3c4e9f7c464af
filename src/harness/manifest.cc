#include "harness/manifest.hh"

#include <sys/utsname.h>

#include "common/json.hh"
#include "common/logging.hh"

namespace mpc::harness
{

std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t hash = 14695981039346656037ull;
    for (const char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 1099511628211ull;
    }
    return hash;
}

std::string
RunManifest::toJson() const
{
    json::ObjectWriter w;
    w.field("schema", "mpc-manifest-v1")
        .field("workload", workload)
        .field("config", configName)
        .field("configHash", json::hex64(configHash))
        .field("procs", procs)
        .field("obs", obs)
        .field("validate", validate)
        .field("host", host);
    return w.str();
}

std::string
configKey(const sys::SystemConfig &config, int procs)
{
    const auto cache = [](const mem::CacheConfig &c) {
        return strprintf("%llu/%d/%d/%d/%d/%llu/%llu",
                         static_cast<unsigned long long>(c.sizeBytes),
                         c.assoc, c.lineBytes, c.numMshrs, c.numPorts,
                         static_cast<unsigned long long>(c.hitLatency),
                         static_cast<unsigned long long>(c.fillLatency));
    };
    const cpu::CoreConfig &core = config.core;
    const std::string core_key = strprintf(
        "%d/%d/%d/%d/%d/%d/%d/%d/%llu/%llu/%llu/%llu/%llu/%llu/%llu/"
        "%d/%d",
        core.fetchWidth, core.issueWidth, core.retireWidth,
        core.memQueueSize, core.maxBranches, core.numAlus, core.numFpus,
        core.numAddrUnits,
        static_cast<unsigned long long>(core.latIntAlu),
        static_cast<unsigned long long>(core.latIntMul),
        static_cast<unsigned long long>(core.latFpArith),
        static_cast<unsigned long long>(core.latFpDiv),
        static_cast<unsigned long long>(core.latFpSqrt),
        static_cast<unsigned long long>(core.latAddrGen),
        static_cast<unsigned long long>(core.mispredictPenalty),
        core.predictorEntries, core.storeIssueWidth);
    const mem::MemBusConfig &bus = config.membus;
    const std::string bus_key = strprintf(
        "%d/%d/%llu/%d/%d/%llu", bus.numBanks,
        static_cast<int>(bus.interleave),
        static_cast<unsigned long long>(bus.bankAccessLatency),
        bus.cpuCyclesPerBusCycle, bus.busWidthBytes,
        static_cast<unsigned long long>(bus.busArbLatency));
    return strprintf(
        "%s|ns=%.6f|l1=%s|l2=%s|single=%d|win=%d|smp=%d|procs=%d"
        "|core=%s|bus=%s|mesh=%d/%d/%d|fab=%d/%llu/%llu|smpbus=%d/%d/"
        "%llu",
        config.name.c_str(), config.nsPerCycle,
        cache(config.hier.l1).c_str(), cache(config.hier.l2).c_str(),
        config.hier.singleLevel ? 1 : 0, config.core.windowSize,
        config.smpBus ? 1 : 0, procs, core_key.c_str(),
        bus_key.c_str(), config.mesh.flitBytes,
        config.mesh.cpuCyclesPerNetCycle,
        config.mesh.hopDelayNetCycles, config.fabric.lineBytes,
        static_cast<unsigned long long>(config.fabric.dirLatency),
        static_cast<unsigned long long>(config.fabric.probeLatency),
        config.smp.busWidthBytes, config.smp.cpuCyclesPerBusCycle,
        static_cast<unsigned long long>(config.smp.arbCycles));
}

std::uint64_t
configHash(const sys::SystemConfig &config, int procs)
{
    return fnv1a(configKey(config, procs));
}

std::string
hostString()
{
    struct utsname u;
    if (uname(&u) != 0)
        return "";
    return strprintf("%s %s %s", u.sysname, u.release, u.machine);
}

RunManifest
makeInvocationManifest(const std::string &label,
                       const sys::SystemConfig &config, int procs)
{
    RunManifest m;
    m.workload = label;
    m.configName = config.name;
    m.configHash = configHash(config, procs);
    m.procs = procs;
    m.obs = config.obsMetrics;
    m.validate = config.validate;
    m.host = hostString();
    return m;
}

} // namespace mpc::harness
