/**
 * @file
 * Post-run analysis records produced by the timing model.
 *
 * The AVF analysis (src/avf) and the fault injector (src/faults) are
 * post-hoc: the pipeline records, per dynamic instruction, what
 * happened and when, and the analyses classify those records after
 * the run, once register/memory deadness is computable from the full
 * committed stream. This mirrors the ACE methodology of the paper's
 * reference [18].
 *
 * Records are packed structs: a multi-million-instruction run keeps
 * tens of MB of trace, so every byte matters. A finished trace is
 * immutable: its bulk columns are sim::Columns, adopted from the
 * vectors the pipeline appended to, or viewed in a disk-tier blob.
 */

#ifndef SER_CPU_TRACE_HH
#define SER_CPU_TRACE_HH

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <type_traits>
#include <utility>
#include <vector>

#include "isa/program.hh"
#include "sim/column.hh"

namespace ser
{
namespace cpu
{

/** Disposition flags of one incarnation. */
enum IncarnationFlags : std::uint8_t
{
    incWrongPath = 1 << 0,   ///< fetched down a mispredicted path
    incPredFalse = 1 << 1,   ///< correct path, qualifying pred false
    incSquashTrigger = 1 << 2,   ///< squashed by an exposure trigger
    incSquashMispredict = 1 << 3,///< squashed by branch resolution
    incCommitted = 1 << 4,   ///< reached commit
};

/**
 * One instruction-queue residency of one incarnation.
 * All cycle fields are 32-bit; runs are bounded well below 2^32
 * cycles (the pipeline enforces this).
 */
struct IncarnationRecord
{
    std::uint32_t staticIdx;   ///< index into the Program
    std::uint32_t oracleSeq;   ///< commit-order seq; ~0u if wrong-path
    std::uint32_t enqueueCycle;
    std::uint32_t issueCycle;  ///< ~0u if never issued (squashed)
    std::uint32_t evictCycle;
    std::uint16_t iqEntry;     ///< physical entry occupied
    std::uint8_t flags;        ///< IncarnationFlags
};

static constexpr std::uint32_t noCycle32 = ~0u;
static constexpr std::uint32_t noSeq32 = ~0u;

/**
 * The growable form of IncarnationColumns: the pipeline (and any
 * test that hand-builds a trace) appends rows here, one push_back
 * per row, then moves the whole log into a trace's columns.
 */
struct IncarnationLog
{
    std::vector<std::uint32_t> staticIdx;
    std::vector<std::uint32_t> oracleSeq;
    std::vector<std::uint32_t> enqueueCycle;
    std::vector<std::uint32_t> issueCycle;
    std::vector<std::uint32_t> evictCycle;
    std::vector<std::uint16_t> iqEntry;
    std::vector<std::uint8_t> flags;

    void reserve(std::size_t n)
    {
        staticIdx.reserve(n);
        oracleSeq.reserve(n);
        enqueueCycle.reserve(n);
        issueCycle.reserve(n);
        evictCycle.reserve(n);
        iqEntry.reserve(n);
        flags.reserve(n);
    }

    void push_back(const IncarnationRecord &r)
    {
        staticIdx.push_back(r.staticIdx);
        oracleSeq.push_back(r.oracleSeq);
        enqueueCycle.push_back(r.enqueueCycle);
        issueCycle.push_back(r.issueCycle);
        evictCycle.push_back(r.evictCycle);
        iqEntry.push_back(r.iqEntry);
        flags.push_back(r.flags);
    }
};

/**
 * Structure-of-arrays storage of the incarnation records.
 *
 * The AVF fold streams every record and touches almost every field;
 * keeping each field in its own contiguous column lets that fold run
 * as wide batch passes (SIMD where available) instead of a per-struct
 * walk, and analyses that need only a field or two (residency
 * indexing by entry, per-PC attribution) stop dragging the rest of
 * the struct through the cache.
 *
 * The columns are immutable sim::Columns: adopted from an
 * IncarnationLog, or viewed in place in a disk-tier blob. The row
 * type is still IncarnationRecord: operator[] / the iterator gather
 * one row back out, so record-at-a-time consumers receive rows by
 * value. Columns are public on purpose: batch passes bind raw
 * pointers to them.
 */
class IncarnationColumns
{
  public:
    sim::Column<std::uint32_t> staticIdx;
    sim::Column<std::uint32_t> oracleSeq;
    sim::Column<std::uint32_t> enqueueCycle;
    sim::Column<std::uint32_t> issueCycle;
    sim::Column<std::uint32_t> evictCycle;
    sim::Column<std::uint16_t> iqEntry;
    sim::Column<std::uint8_t> flags;

    IncarnationColumns() = default;

    /** Adopt a finished log's vectors. */
    IncarnationColumns(IncarnationLog &&log)
        : staticIdx(std::move(log.staticIdx)),
          oracleSeq(std::move(log.oracleSeq)),
          enqueueCycle(std::move(log.enqueueCycle)),
          issueCycle(std::move(log.issueCycle)),
          evictCycle(std::move(log.evictCycle)),
          iqEntry(std::move(log.iqEntry)), flags(std::move(log.flags))
    {
    }

    std::size_t size() const { return flags.size(); }
    bool empty() const { return flags.empty(); }

    /** Gather row i back into a record (by value). */
    IncarnationRecord operator[](std::size_t i) const
    {
        return {staticIdx[i], oracleSeq[i],  enqueueCycle[i],
                issueCycle[i], evictCycle[i], iqEntry[i], flags[i]};
    }

    /** Row-gathering iterator: dereferences to a record by value
     * (range-for with `const auto &` binds the usual way). */
    class const_iterator
    {
      public:
        using iterator_category = std::input_iterator_tag;
        using value_type = IncarnationRecord;
        using difference_type = std::ptrdiff_t;
        using pointer = void;
        using reference = IncarnationRecord;

        const_iterator() = default;
        const_iterator(const IncarnationColumns *cols, std::size_t i)
            : _cols(cols), _i(i)
        {
        }

        IncarnationRecord operator*() const { return (*_cols)[_i]; }
        const_iterator &operator++()
        {
            ++_i;
            return *this;
        }
        const_iterator operator++(int)
        {
            const_iterator prev = *this;
            ++_i;
            return prev;
        }
        bool operator==(const const_iterator &o) const
        {
            return _i == o._i;
        }
        bool operator!=(const const_iterator &o) const
        {
            return _i != o._i;
        }

      private:
        const IncarnationColumns *_cols = nullptr;
        std::size_t _i = 0;
    };

    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, size()}; }
};

/**
 * One committed (oracle-order) instruction. The three pad bytes are
 * explicit and always zero, so a record has no indeterminate bytes
 * and a commit stream is stored and viewed as one flat column
 * (harness/cache_codec.hh). The constructor keeps `{idx, qp, addr}`
 * from brace-eliding the address into the pad.
 */
struct CommitRecord
{
    CommitRecord() = default;
    CommitRecord(std::uint32_t static_idx, std::uint8_t qp_true,
                 std::uint64_t mem_addr)
        : staticIdx(static_idx), qpTrue(qp_true), memAddr(mem_addr)
    {
    }

    std::uint32_t staticIdx = 0;
    std::uint8_t qpTrue = 0;
    std::uint8_t pad[3] = {};
    std::uint64_t memAddr = 0;  ///< loads/stores with qpTrue; else 0
};
static_assert(sizeof(CommitRecord) == 16 &&
                  std::has_unique_object_representations_v<
                      CommitRecord>,
              "CommitRecord must stay a padding-free 16-byte record");

/** Everything a run leaves behind for analysis. */
struct SimTrace
{
    const isa::Program *program = nullptr;

    sim::Column<CommitRecord> commits;
    IncarnationColumns incarnations;

    /** AVF measurement window [startCycle, endCycle). */
    std::uint64_t startCycle = 0;
    std::uint64_t endCycle = 0;

    /** Committed instructions inside the window. */
    std::uint64_t committedInsts = 0;

    /** True if the commit stream ends at a halt (deadness at the end
     * of the trace is then exact; otherwise tail defs are treated as
     * live, the conservative ACE assumption). */
    bool programHalted = false;

    std::uint32_t iqEntries = 64;

    double ipc() const
    {
        std::uint64_t cycles = endCycle - startCycle;
        return cycles ? static_cast<double>(committedInsts) /
                            static_cast<double>(cycles)
                      : 0.0;
    }
};

} // namespace cpu
} // namespace ser

#endif // SER_CPU_TRACE_HH
