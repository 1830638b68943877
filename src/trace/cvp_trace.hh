/**
 * @file
 * The CVP-1 trace format: in-memory record, binary serialisation, and
 * file readers/writers (zlib-backed, so plain and .gz files both work).
 *
 * The on-disk layout is our reconstruction of the public CVP-1 trace
 * reader's variable-length record:
 *
 *   u64  pc
 *   u8   instruction class (InstClass)
 *   [branches]  u8 taken, u64 target
 *   [loads/stores]  u64 effective address, u8 per-register access size
 *   u8   #source regs,      that many u8 reg ids
 *   u8   #destination regs, that many u8 reg ids, then that many u64
 *        output values (the architectural value written to each
 *        destination register -- the property CVP-1 traces are famous for)
 *
 * A 16-byte file header ("TRB1CVP\0", format version, instruction count)
 * precedes the records; the real Qualcomm traces are headerless, but since
 * both producers and consumers of this format live in this repository a
 * header buys cheap integrity checking.
 */

#ifndef TRB_TRACE_CVP_TRACE_HH
#define TRB_TRACE_CVP_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "resil/gz_stream.hh"
#include "resil/status.hh"

namespace trb
{

/** Maximum source registers a CVP-1 record can carry (CASP reaches 5). */
constexpr unsigned kMaxCvpSrc = 8;
/** Maximum destination registers a CVP-1 record can carry (0..3 typical). */
constexpr unsigned kMaxCvpDst = 4;

/**
 * One dynamic instruction as recorded by the CVP-1 tracer.
 *
 * Note what is *absent* -- addressing mode, opcode, special-purpose
 * registers (flags), exact footprint of multi-register loads -- because
 * those absences are exactly what the improved converter has to infer
 * around.
 */
struct CvpRecord
{
    Addr pc = 0;
    InstClass cls = InstClass::Alu;

    /** Branch fields; only meaningful when isBranch(cls). */
    bool taken = false;
    Addr target = 0;

    /** Memory fields; only meaningful when isMem(cls). */
    Addr ea = 0;
    std::uint8_t accessSize = 0;   //!< bytes transferred per register

    std::uint8_t numSrc = 0;
    RegId src[kMaxCvpSrc] = {};

    std::uint8_t numDst = 0;
    RegId dst[kMaxCvpDst] = {};
    std::uint64_t dstValue[kMaxCvpDst] = {};

    /** Append a source register (silently drops past kMaxCvpSrc). */
    void
    addSrc(RegId r)
    {
        if (numSrc < kMaxCvpSrc)
            src[numSrc++] = r;
    }

    /** Append a destination register with its output value. */
    void
    addDst(RegId r, std::uint64_t value)
    {
        if (numDst < kMaxCvpDst) {
            dst[numDst] = r;
            dstValue[numDst] = value;
            ++numDst;
        }
    }

    /** True if @p r appears among the source registers. */
    bool
    readsReg(RegId r) const
    {
        for (unsigned i = 0; i < numSrc; ++i)
            if (src[i] == r)
                return true;
        return false;
    }

    /** True if @p r appears among the destination registers. */
    bool
    writesReg(RegId r) const
    {
        for (unsigned i = 0; i < numDst; ++i)
            if (dst[i] == r)
                return true;
        return false;
    }

    bool operator==(const CvpRecord &other) const;
};

/** A whole CVP-1 trace held in memory. */
using CvpTrace = std::vector<CvpRecord>;

/** Serialise a single record, appending to @p out. */
void serializeCvpRecord(const CvpRecord &rec, std::vector<std::uint8_t> &out);

/** Why a single-record deserialisation stopped. */
enum class CvpParse : std::uint8_t
{
    Ok,       //!< record parsed, offset advanced
    NeedMore, //!< ran off the end of @p data -- truncated or refill
    BadData,  //!< bytes present but violate a format rule
};

/**
 * Deserialise a single record from @p data at @p offset (advanced past
 * the record on Ok).  Distinguishes "not enough bytes" from "bytes that
 * cannot be a record" so callers can classify truncation vs corruption.
 */
CvpParse deserializeCvpRecordEx(const std::uint8_t *data, std::size_t size,
                                std::size_t &offset, CvpRecord &rec);

/**
 * Deserialise a single record from @p data at @p offset (advanced past the
 * record).  Returns false on truncated input.
 */
bool deserializeCvpRecord(const std::uint8_t *data, std::size_t size,
                          std::size_t &offset, CvpRecord &rec);

/** Serialise a whole trace (header + records) to an in-memory buffer. */
std::vector<std::uint8_t> serializeCvpTrace(const CvpTrace &trace);

/**
 * Parse a whole serialised trace from memory.  Validates the magic,
 * version, header count against records present, and rejects trailing
 * bytes -- so any corruption of the buffer is detected.  @p name labels
 * diagnostics (a file path or a synthetic trace name).
 */
Expected<CvpTrace> parseCvpTrace(const std::uint8_t *data, std::size_t size,
                                 const std::string &name);

/**
 * Write a trace to @p path; ".gz" selects compression.  Both gzwrite
 * and gzclose are checked: a flush failure at close is data loss.
 */
Status tryWriteCvpTrace(const std::string &path, const CvpTrace &trace);

/**
 * Read a trace written by tryWriteCvpTrace() with rich diagnostics
 * (byte offset, record index, violated rule) instead of dying.
 */
Expected<CvpTrace> tryReadCvpTrace(const std::string &path);

/**
 * Streaming reader over a CVP-1 trace file, for consumers that do not want
 * the whole trace in memory (the converter CLI uses this).
 *
 * Construct empty, then open(), which reports a Status; next() returns
 * false with status() set on malformed input.
 */
class CvpTraceReader
{
  public:
    CvpTraceReader() = default;
    ~CvpTraceReader() = default;

    CvpTraceReader(const CvpTraceReader &) = delete;
    CvpTraceReader &operator=(const CvpTraceReader &) = delete;

    /** Open @p path and validate the header. */
    Status open(const std::string &path);

    /** Instruction count promised by the header. */
    std::uint64_t count() const { return count_; }

    /** Records delivered so far. */
    std::uint64_t delivered() const { return delivered_; }

    /**
     * Fetch the next record; false at end of trace or on error.  Check
     * status() to tell the two apart.
     */
    bool next(CvpRecord &rec);

    /**
     * After next() has returned false cleanly, verify nothing trails
     * the promised records.  OK in all other error cases too (the
     * earlier error stands).
     */
    Status finish();

    /** The error that stopped next(); OK at a clean end of trace. */
    const Status &status() const { return status_; }

  private:
    Status fill();

    resil::GzInFile in_;
    std::vector<std::uint8_t> buffer_;
    std::size_t pos_ = 0;
    std::uint64_t bufferBase_ = 0; //!< file offset of buffer_[0]
    bool eof_ = false;
    std::uint64_t count_ = 0;
    std::uint64_t delivered_ = 0;
    Status status_;
};

} // namespace trb

#endif // TRB_TRACE_CVP_TRACE_HH
