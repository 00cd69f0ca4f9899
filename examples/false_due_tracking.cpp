/**
 * @file
 * A didactic walk through the pi-bit machinery of Section 4: takes
 * a small hand-written program, pretends the instruction queue
 * detected a parity error on each instruction in turn, and shows
 * where every tracking level finally signals the error — or proves
 * it false and suppresses it.
 *
 * Usage: false_due_tracking
 */

#include <iostream>
#include <string>
#include <vector>

#include "avf/deadness.hh"
#include "core/pi_machine.hh"
#include "cpu/pipeline.hh"
#include "harness/bench_options.hh"
#include "harness/manifest.hh"
#include "harness/reporting.hh"
#include "isa/assembler.hh"

using namespace ser;
using core::PiMachine;
using core::TrackingLevel;

int
main(int argc, char **argv)
{
    harness::BenchOptions opts = harness::BenchOptions::parse(
        argc, argv,
        "Walkthrough: where each tracking level signals or "
        "suppresses a detected error");
    harness::BenchOutput out(opts);
    // A little program with one of everything the paper's taxonomy
    // cares about: live work, a no-op and a prefetch (neutral), a
    // nullified instruction, an overwritten-unread def (FDD), a
    // dead chain (TDD), and dead stores.
    const char *src = R"(
        .entry main
        main:
            movi r5 = 0x4000
            movi r2 = 6
            movi r3 = 7
            mul r4 = r2, r3       // live: reaches the out
            nop                   // neutral
            prefetch [r5, 64]     // neutral
            cmpieq p2 = r4, 0
            (p2) addi r4 = r4, 1  // predicated false
            movi r8 = 111         // FDD: overwritten unread
            movi r8 = 222
            addi r9 = r8, 1       // TDD: read only by a dead def
            movi r9 = 0
            st8 [r5, 0] = r4      // live store: loaded below
            ld8 r10 = [r5, 0]
            st8 [r5, 8] = r2      // dead store: overwritten unread
            st8 [r5, 8] = r10
            out r4
            out r10
            halt
    )";
    isa::Program program = isa::assembleOrDie(src);

    cpu::PipelineParams params;
    params.maxInsts = 1000;
    cpu::InOrderPipeline pipe(program, params);
    cpu::SimTrace trace = pipe.run();
    trace.program = &program;
    avf::DeadnessResult dead = avf::analyzeDeadness(trace);

    const TrackingLevel levels[] = {
        TrackingLevel::None,          TrackingLevel::PiToCommit,
        TrackingLevel::AntiPi,        TrackingLevel::PetBuffer,
        TrackingLevel::PiRegFile,     TrackingLevel::PiStoreBuffer,
        TrackingLevel::PiMemory,
    };

    std::vector<std::string> headers = {"instruction", "deadness"};
    for (auto l : levels)
        headers.push_back(core::trackingLevelName(l));
    harness::Table matrix(headers);

    for (std::uint64_t i = 0; i < trace.commits.size(); ++i) {
        const auto &cr = trace.commits[i];
        const isa::StaticInst &inst = program.inst(cr.staticIdx);
        std::string text = inst.toString();
        if (!cr.qpTrue)
            text += " [nullified]";
        std::vector<std::string> row = {
            text, avf::deadKindName(dead.kind[i])};
        for (auto l : levels) {
            PiMachine machine(trace, l);
            auto signal = machine.run(i);
            row.push_back(signal.signalled
                              ? core::piSignalPointName(signal.point)
                              : "(suppressed)");
        }
        matrix.addRow(row);
    }
    harness::printHeading(
        std::cout,
        "where each tracking level signals a detected error");
    out.print("tracking_matrix", matrix);

    std::cout
        << "\nreading guide: plain parity signals everything at "
           "detection; pi-to-commit clears nullified instructions; "
           "the anti-pi bit clears no-ops and prefetches; the PET "
           "buffer and the pi-bit levels progressively prove the "
           "dead defs false, until pi-on-memory signals only what "
           "truly reaches the program output (Section 4.3).\n";

    // The walk-through runs a bare pipeline, outside the experiment
    // harness: finish() warns that --trace-events and --topn have
    // nothing to act on.
    out.finish();
    return 0;
}
