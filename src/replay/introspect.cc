#include "introspect.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <vector>

#include "replay/journal.hh"

namespace hipstr
{
namespace replay
{

namespace
{

std::string
hex32(uint32_t v)
{
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%08x", v);
    return buf;
}

/** Split a command line on single spaces. */
std::vector<std::string>
tokenize(const std::string &line)
{
    std::vector<std::string> out;
    std::istringstream in(line);
    std::string tok;
    while (in >> tok)
        out.push_back(tok);
    return out;
}

bool
parseU64(const std::string &s, uint64_t &out, int base = 10)
{
    if (s.empty())
        return false;
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(s.c_str(), &end, base);
    if (errno != 0 || end == nullptr || *end != '\0')
        return false;
    out = v;
    return true;
}

} // namespace

IntrospectionServer::IntrospectionServer(ProtectedServer &srv,
                                         uint16_t port)
    : _srv(srv)
{
    _listenFd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (_listenFd < 0)
        throw ReplayError(ReplayErrc::Io, "socket() failed");
    int one = 1;
    ::setsockopt(_listenFd, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::bind(_listenFd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(_listenFd, 1) != 0) {
        ::close(_listenFd);
        _listenFd = -1;
        throw ReplayError(ReplayErrc::Io,
                          "cannot bind introspection port");
    }
    socklen_t len = sizeof(addr);
    if (::getsockname(_listenFd, reinterpret_cast<sockaddr *>(&addr),
                      &len) == 0) {
        _port = ntohs(addr.sin_port);
    }
}

IntrospectionServer::~IntrospectionServer()
{
    if (_listenFd >= 0)
        ::close(_listenFd);
}

void
IntrospectionServer::requestStop()
{
    _stop.store(true);
    // Poke the blocking accept() with a throwaway connection.
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd >= 0) {
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(_port);
        ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr));
        ::close(fd);
    }
}

std::string
IntrospectionServer::handleLine(const std::string &line)
{
    std::vector<std::string> tok = tokenize(line);
    if (tok.empty())
        return "err empty command\n";
    const std::string &cmd = tok[0];
    std::ostringstream out;

    auto lookupWorker = [&](const std::string &s,
                            GuestProcess *&proc) -> bool {
        uint64_t pid = 0;
        if (!parseU64(s, pid) || pid >= _srv.workers().size())
            return false;
        proc = &_srv.worker(size_t(pid));
        return true;
    };

    if (cmd == "guests") {
        for (const auto &p : _srv.workers()) {
            const MachineState &st =
                p->runtime().vm(p->runtime().currentIsa()).state;
            out << "guest " << p->pid() << " "
                << procStateName(p->state()) << " "
                << isaName(p->isa()) << " pc=" << hex32(st.pc)
                << " insts=" << p->stats().guestInsts << "\n";
        }
        out << "ok\n";
    } else if (cmd == "regs" && tok.size() == 2) {
        GuestProcess *p = nullptr;
        if (!lookupWorker(tok[1], p))
            return "err no such guest\n";
        const MachineState &st =
            p->runtime().vm(p->runtime().currentIsa()).state;
        for (size_t i = 0; i < st.regs.size(); ++i)
            out << "r" << i << "=" << hex32(st.regs[i]) << "\n";
        out << "pc=" << hex32(st.pc) << "\n";
        out << "flags=" << (st.flags.zf ? 1 : 0)
            << (st.flags.sf ? 1 : 0) << (st.flags.cf ? 1 : 0)
            << (st.flags.of ? 1 : 0) << "\n";
        out << "ok\n";
    } else if (cmd == "mem" && tok.size() == 4) {
        GuestProcess *p = nullptr;
        uint64_t addr = 0, len = 0;
        if (!lookupWorker(tok[1], p))
            return "err no such guest\n";
        if (!parseU64(tok[2], addr, 16) || !parseU64(tok[3], len))
            return "err bad address or length\n";
        if (len == 0 || len > 4096)
            return "err length must be 1..4096\n";
        if (addr + len > p->mem().size())
            return "err address out of range\n";
        std::vector<uint8_t> buf(len);
        p->mem().rawReadBytes(Addr(addr), buf.data(), buf.size());
        for (size_t i = 0; i < buf.size(); i += 16) {
            out << hex32(uint32_t(addr + i)) << ":";
            for (size_t k = i; k < buf.size() && k < i + 16; ++k) {
                char b[4];
                std::snprintf(b, sizeof(b), " %02x", buf[k]);
                out << b;
            }
            out << "\n";
        }
        out << "ok\n";
    } else if (cmd == "telemetry") {
        out << "round=" << _srv.roundNumber() << "\n";
        out << "sync=" << _srv.roundSyncSignature() << "\n";
        const SchedulerStats &ss = _srv.scheduler().stats();
        out << "quanta_run=" << ss.quantaRun << "\n";
        out << "respawns=" << ss.respawns << "\n";
        out << "migrations_routed=" << ss.migrationsRouted << "\n";
        out << "retired=" << ss.retired << "\n";
        for (const auto &p : _srv.workers()) {
            out << "worker." << p->pid()
                << ".signature=" << p->statsSignature() << "\n";
            out << "worker." << p->pid()
                << ".security_events=" << p->securityEvents() << "\n";
        }
        out << "ok\n";
    } else if (cmd == "checkpoint" && tok.size() == 2) {
        ByteWriter w;
        _srv.saveCheckpoint(w);
        FILE *f = std::fopen(tok[1].c_str(), "wb");
        if (f == nullptr)
            return "err cannot open " + tok[1] + "\n";
        size_t n = std::fwrite(w.data().data(), 1, w.size(), f);
        bool closed = std::fclose(f) == 0;
        if (n != w.size() || !closed)
            return "err short write to " + tok[1] + "\n";
        out << "ok bytes=" << w.size() << "\n";
    } else if (cmd == "step" && tok.size() <= 2) {
        uint64_t n = 1;
        if (tok.size() == 2 && (!parseU64(tok[1], n) || n == 0))
            return "err bad step count\n";
        // stepRound() can run a final round and still return false
        // (run over), so count actual rounds via roundNumber().
        uint64_t before = _srv.roundNumber();
        bool more = true;
        for (uint64_t i = 0; i < n && more; ++i)
            more = _srv.stepRound(nullptr);
        out << "ok stepped=" << (_srv.roundNumber() - before)
            << " finished=" << (more ? 0 : 1) << "\n";
    } else if (cmd == "status") {
        out << "round=" << _srv.roundNumber() << "\n";
        out << "workers=" << _srv.workers().size() << "\n";
        out << "ok\n";
    } else if (cmd == "quit") {
        _quit = true;
        out << "ok bye\n";
    } else {
        return "err unknown command: " + cmd + "\n";
    }
    return out.str();
}

void
IntrospectionServer::serve()
{
    while (!_stop.load()) {
        int fd = ::accept(_listenFd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (_stop.load()) {
            ::close(fd);
            break;
        }
        std::string pending;
        char buf[1024];
        bool open = true;
        while (open && !_quit) {
            ssize_t n = ::read(fd, buf, sizeof(buf));
            if (n <= 0)
                break;
            pending.append(buf, size_t(n));
            size_t nl;
            while ((nl = pending.find('\n')) != std::string::npos) {
                std::string line = pending.substr(0, nl);
                if (!line.empty() && line.back() == '\r')
                    line.pop_back();
                pending.erase(0, nl + 1);
                std::string resp = handleLine(line);
                const char *p = resp.data();
                size_t left = resp.size();
                while (left > 0) {
                    ssize_t wr = ::write(fd, p, left);
                    if (wr <= 0) {
                        open = false;
                        break;
                    }
                    p += wr;
                    left -= size_t(wr);
                }
                if (_quit || !open)
                    break;
            }
        }
        ::close(fd);
        if (_quit)
            break;
    }
}

} // namespace replay
} // namespace hipstr
