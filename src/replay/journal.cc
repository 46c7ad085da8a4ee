#include "journal.hh"

#include <cstdio>

namespace hipstr
{
namespace replay
{

const char *
replayErrcName(ReplayErrc c)
{
    switch (c) {
      case ReplayErrc::BadMagic: return "bad magic";
      case ReplayErrc::BadVersion: return "bad version";
      case ReplayErrc::Truncated: return "truncated";
      case ReplayErrc::Corrupt: return "corrupt";
      case ReplayErrc::ConfigMismatch: return "config mismatch";
      case ReplayErrc::Divergence: return "divergence";
      case ReplayErrc::Io: return "io";
    }
    return "?";
}

JournalWriter::JournalWriter(const std::string &path,
                             uint64_t configHash)
    : _path(path)
{
    FILE *f = std::fopen(path.c_str(), "wb");
    if (f == nullptr)
        throw ReplayError(ReplayErrc::Io,
                          "cannot open journal for writing: " + path);
    _file = f;
    ByteWriter w;
    w.u64(kJournalMagic);
    w.u32(kJournalVersion);
    w.u64(configHash);
    if (std::fwrite(w.data().data(), 1, w.size(), f) != w.size()) {
        std::fclose(f);
        _file = nullptr;
        throw ReplayError(ReplayErrc::Io,
                          "journal header write failed: " + path);
    }
    _bytes = w.size();
}

JournalWriter::~JournalWriter()
{
    if (_file != nullptr)
        std::fclose(static_cast<FILE *>(_file));
}

void
JournalWriter::record(RecordTag tag, const ByteWriter &payload)
{
    FILE *f = static_cast<FILE *>(_file);
    if (f == nullptr)
        throw ReplayError(ReplayErrc::Io, "journal already closed");
    ByteWriter head;
    head.u8(static_cast<uint8_t>(tag));
    head.u32(uint32_t(payload.size()));
    if (std::fwrite(head.data().data(), 1, head.size(), f) != head.size() ||
        (payload.size() != 0 &&
         std::fwrite(payload.data().data(), 1, payload.size(), f) !=
             payload.size())) {
        throw ReplayError(ReplayErrc::Io,
                          "journal record write failed: " + _path);
    }
    _bytes += head.size() + payload.size();
}

void
JournalWriter::close()
{
    FILE *f = static_cast<FILE *>(_file);
    if (f == nullptr)
        return;
    _file = nullptr;
    if (std::fclose(f) != 0)
        throw ReplayError(ReplayErrc::Io,
                          "journal close failed: " + _path);
}

uint64_t
Journal::checkpointAtOrBefore(uint64_t round) const
{
    uint64_t best = 0;
    for (const auto &kv : rounds) {
        if (kv.first > round)
            break;
        if (!kv.second.checkpoint.empty())
            best = kv.first;
    }
    return best;
}

Journal
parseJournal(const std::vector<uint8_t> &bytes)
{
    // SerializeError from the bounds-checked reader means the journal
    // stops mid-record: map it onto the journal's own error taxonomy.
    Journal j;
    try {
        ByteReader r(bytes);
        if (r.remaining() < 8 || r.u64() != kJournalMagic)
            throw ReplayError(ReplayErrc::BadMagic,
                              "not a HIPStR journal");
        uint32_t version = r.u32();
        if (version != kJournalVersion) {
            throw ReplayError(ReplayErrc::BadVersion,
                              "unsupported journal version " +
                                  std::to_string(version));
        }
        j.configHash = r.u64();

        // Records accumulate into a pending round closed by its Sync.
        RoundData pending;
        uint64_t lastSynced = 0;
        bool sawEnd = false;
        while (!r.atEnd()) {
            uint8_t tag = r.u8();
            uint32_t len = r.u32();
            if (len > r.remaining())
                throw ReplayError(ReplayErrc::Truncated,
                                  "journal ends mid-record");
            ByteReader body(r.ptr(), len);
            r.skip(len);
            switch (static_cast<RecordTag>(tag)) {
              case RecordTag::Request: {
                  Request req;
                  LoadArchive{ body }(req);
                  // Both drivers draw ids in increasing order, so a
                  // repeated or regressing id is damage.
                  if (!j.requests.empty() &&
                      req.id <= j.requests.rbegin()->first)
                      throw ReplayError(ReplayErrc::Corrupt,
                                        "request ids not increasing");
                  pending.draws.push_back(req);
                  j.requests[req.id] = req;
                  break;
              }
              case RecordTag::Coin: {
                  uint32_t pid = body.u32();
                  uint8_t flip = body.u8();
                  if (flip > 1)
                      throw ReplayError(ReplayErrc::Corrupt,
                                        "coin flip not 0/1");
                  pending.coins.emplace_back(pid, flip);
                  break;
              }
              case RecordTag::Fault: {
                  uint32_t pid = body.u32();
                  uint64_t serial = body.u64();
                  QuantumFault f;
                  uint8_t kind = body.u8();
                  if (kind >= kNumFaultKinds)
                      throw ReplayError(ReplayErrc::Corrupt,
                                        "fault record has bad kind");
                  f.kind = static_cast<FaultKind>(kind);
                  f.payload = body.u64();
                  j.faults[{ pid, serial }] = f;
                  break;
              }
              case RecordTag::Outage: {
                  uint32_t coreId = body.u32();
                  body.u8(); // isa: informational
                  uint64_t round = body.u64();
                  uint32_t lenRounds = body.u32();
                  j.outages[{ coreId, round }] = lenRounds;
                  break;
              }
              case RecordTag::Sync: {
                  uint64_t round = body.u64();
                  if (round <= lastSynced)
                      throw ReplayError(ReplayErrc::Corrupt,
                                        "sync rounds not increasing");
                  pending.syncSig = body.u64();
                  j.rounds[round] = std::move(pending);
                  pending = RoundData{};
                  lastSynced = round;
                  break;
              }
              case RecordTag::Checkpoint: {
                  uint64_t round = body.u64();
                  auto it = j.rounds.find(round);
                  if (it == j.rounds.end())
                      throw ReplayError(
                          ReplayErrc::Corrupt,
                          "checkpoint for an unsynced round");
                  uint32_t blob = body.u32();
                  if (blob != body.remaining())
                      throw ReplayError(ReplayErrc::Corrupt,
                                        "checkpoint length mismatch");
                  it->second.checkpoint.assign(
                      body.ptr(), body.ptr() + blob);
                  body.skip(blob);
                  break;
              }
              case RecordTag::End: {
                  j.endRounds = body.u64();
                  j.endSignature = body.u64();
                  j.endServed = body.u64();
                  sawEnd = true;
                  break;
              }
              default:
                  throw ReplayError(ReplayErrc::Corrupt,
                                    "unknown journal record tag " +
                                        std::to_string(tag));
            }
            if (!body.atEnd())
                throw ReplayError(ReplayErrc::Corrupt,
                                  "trailing bytes in journal record");
            if (sawEnd)
                break;
        }
        if (!sawEnd)
            throw ReplayError(ReplayErrc::Truncated,
                              "journal has no End record");
        if (!r.atEnd())
            throw ReplayError(ReplayErrc::Corrupt,
                              "trailing bytes after End record");
        if (j.endRounds != lastSynced)
            throw ReplayError(ReplayErrc::Corrupt,
                              "End round count disagrees with syncs");
    } catch (const SerializeError &e) {
        throw ReplayError(e.code() == SerializeErrc::Truncated
                              ? ReplayErrc::Truncated
                              : ReplayErrc::Corrupt,
                          std::string("journal unreadable: ") +
                              e.what());
    }
    return j;
}

Journal
parseJournal(const std::string &path)
{
    FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        throw ReplayError(ReplayErrc::Io,
                          "cannot open journal: " + path);
    std::vector<uint8_t> bytes;
    uint8_t buf[65536];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        bytes.insert(bytes.end(), buf, buf + n);
    bool bad = std::ferror(f) != 0;
    std::fclose(f);
    if (bad)
        throw ReplayError(ReplayErrc::Io,
                          "journal read failed: " + path);
    return parseJournal(bytes);
}

} // namespace replay
} // namespace hipstr
