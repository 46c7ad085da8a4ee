/**
 * @file
 * The record/replay journal: a versioned, length-prefixed binary log
 * of every nondeterministic input a protected-server or fleet run
 * consumed — request-stream draws, fault-plan firings,
 * diversification coin flips — framed per scheduler round with a
 * sync signature at each round boundary and, for a lone server, full
 * server checkpoints at a configurable cadence. A journal plus the
 * (FatBinary, ServerConfig or FleetConfig) pair it was recorded
 * against is sufficient to re-drive the run bit-exactly, from the
 * start or from any checkpointed sync point.
 *
 * Layout (all integers little-endian):
 *
 *   header:  magic u64 ("HIPSTRJL"), version u32, configHash u64
 *   records: tag u8, length u32, payload[length]
 *
 * Per completed round the recorder emits, in order: the Request
 * records drawn during that round's assignment, the Fault and Outage
 * records the fault plan fired, the Coin records each worker drew
 * (pid order), one Sync record closing the round, and optionally one
 * Checkpoint record. One End record terminates the journal; a
 * journal without it is truncated.
 */

#ifndef HIPSTR_REPLAY_JOURNAL_HH
#define HIPSTR_REPLAY_JOURNAL_HH

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "fault/plan.hh"
#include "server/request_stream.hh"
#include "support/serialize.hh"

namespace hipstr
{
namespace replay
{

/** Journal magic: "HIPSTRJL" read as a little-endian u64. */
constexpr uint64_t kJournalMagic = 0x4c4a525453504948ull;
constexpr uint32_t kJournalVersion = 1;

/** Record tags. */
enum class RecordTag : uint8_t
{
    Request = 2,    ///< one request drawn from the live stream
    Coin = 3,       ///< one diversification coin flip
    Fault = 4,      ///< one fault-plan quantum firing
    Outage = 5,     ///< one fault-plan core-outage start
    Sync = 6,       ///< round boundary + sync signature
    Checkpoint = 7, ///< full server checkpoint at a round boundary
    End = 8         ///< run over: rounds, final report signature
};

/** What went wrong with a journal. */
enum class ReplayErrc
{
    BadMagic,       ///< not a journal file
    BadVersion,     ///< journal from an incompatible writer
    Truncated,      ///< ends mid-record or without an End record
    Corrupt,        ///< structurally invalid contents
    ConfigMismatch, ///< recorded against a different ServerConfig
    Divergence,     ///< replay disagreed with the recording
    Io              ///< file could not be read/written
};

const char *replayErrcName(ReplayErrc c);

/** Typed journal/replay error. */
class ReplayError : public std::runtime_error
{
  public:
    ReplayError(ReplayErrc code, const std::string &what)
        : std::runtime_error(what), _code(code)
    {
    }
    ReplayErrc code() const { return _code; }

  private:
    ReplayErrc _code;
};

/** Append-only journal writer over a file. */
class JournalWriter
{
  public:
    /** Open @p path for writing and emit the header. Throws Io. */
    JournalWriter(const std::string &path, uint64_t configHash);
    ~JournalWriter();

    /** Emit one record. */
    void record(RecordTag tag, const ByteWriter &payload);

    /** Flush and close; throws Io on write failure. */
    void close();

    uint64_t bytesWritten() const { return _bytes; }

  private:
    std::string _path;
    void *_file = nullptr; ///< FILE*, opaque to keep <cstdio> out
    uint64_t _bytes = 0;
};

/** Everything one recorded round contributed to the journal. */
struct RoundData
{
    /** Requests drawn during this round's assignment, in draw order. */
    std::vector<Request> draws;
    /** Coin flips, (pid, flip) in per-worker drain order. */
    std::vector<std::pair<uint32_t, uint8_t>> coins;
    uint64_t syncSig = 0;
    /** Full server checkpoint taken at this round's end (may be
     *  empty: checkpoints are periodic). */
    std::vector<uint8_t> checkpoint;
};

/** A fully parsed journal. */
struct Journal
{
    uint64_t configHash = 0;
    /** Per-round data, keyed by the 1-based completed-round number. */
    std::map<uint64_t, RoundData> rounds;
    /** Request draws keyed by id (same requests as rounds[].draws). */
    std::map<uint64_t, Request> requests;
    /** Fault firings keyed by (pid, quantum serial). */
    std::map<std::pair<uint32_t, uint64_t>, QuantumFault> faults;
    /** Outage starts keyed by (coreId, round) → length in rounds. */
    std::map<std::pair<uint32_t, uint64_t>, uint32_t> outages;
    /** From the End record. @{ */
    uint64_t endRounds = 0;
    uint64_t endSignature = 0; ///< final ServerReport::signature
    uint64_t endServed = 0;
    /** @} */

    /** Round of the last checkpoint at or before @p round (0 = none;
     *  round 0 is the fresh-start state, never checkpointed). */
    uint64_t checkpointAtOrBefore(uint64_t round) const;
};

/**
 * Read and validate @p path completely. Throws ReplayError with
 * BadMagic / BadVersion / Truncated / Corrupt / Io.
 */
Journal parseJournal(const std::string &path);

/** parseJournal over an in-memory image (tests). */
Journal parseJournal(const std::vector<uint8_t> &bytes);

} // namespace replay
} // namespace hipstr

#endif // HIPSTR_REPLAY_JOURNAL_HH
