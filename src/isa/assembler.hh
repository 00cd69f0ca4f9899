/**
 * @file
 * A text assembler for TIA64.
 *
 * Syntax (one instruction per line; "//" and "#" start comments):
 *
 *     .entry main            // entry label (default: first inst)
 *     .data 0x100000         // set the data cursor
 *     .word 42               // emit a u64 at the cursor, advance 8
 *     main:
 *         movi r4 = 100
 *         (p3) add r5 = r4, r6
 *         ld8 r7 = [r5, 16]
 *         st8 [r5, 24] = r7
 *         cmplt p3 = r4, r5
 *         (p3) br main       // direct branch targets are labels
 *         call r62 = func    // link register = address of next inst
 *         ret r62
 *         out r7
 *         halt
 *
 * Labels used as immediates resolve to an instruction *index* in
 * direct branches (br/call) and to a full code *address* elsewhere
 * (e.g. movi of a function address for an indirect call).
 *
 * Errors are reported with line numbers via the AsmError result; the
 * assembler never exits the process, so it is safe to drive from
 * fuzzing/property tests.
 */

#ifndef SER_ISA_ASSEMBLER_HH
#define SER_ISA_ASSEMBLER_HH

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "isa/program.hh"

namespace ser
{
namespace isa
{

/** A parse/semantic error with its source line. */
struct AsmError
{
    int line;
    std::string message;
};

/** The outcome of assembling a source text. */
struct AsmResult
{
    Program program;
    std::optional<AsmError> error;

    bool ok() const { return !error.has_value(); }
};

/** Assemble TIA64 source text into a Program. The program adopts
 * 'data' as its data words after the source's own .word words (the
 * workload builder's multi-megabyte images, which never pass through
 * text). */
AsmResult assemble(std::string_view source,
                   std::vector<DataInit> data = {});

/** Assemble, treating any error as fatal (for trusted inputs). */
Program assembleOrDie(std::string_view source,
                      std::vector<DataInit> data = {});

} // namespace isa
} // namespace ser

#endif // SER_ISA_ASSEMBLER_HH
