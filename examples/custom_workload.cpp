/**
 * @file
 * Scenario: analysing your own kernel. Shows the whole public API
 * end to end on a hand-written TIA64 program — assemble it, run the
 * timing model with and without squashing, compute the AVF
 * breakdown, the dynamically-dead population, the false-DUE
 * coverage of each tracking level, and the PET-buffer sweet spot.
 *
 * Usage: custom_workload
 */

#include <iostream>

#include "avf/avf.hh"
#include "avf/deadness.hh"
#include "core/due_tracker.hh"
#include "core/pet_buffer.hh"
#include "core/trigger.hh"
#include "cpu/pipeline.hh"
#include "harness/bench_options.hh"
#include "harness/experiment.hh"
#include "harness/manifest.hh"
#include "harness/reporting.hh"
#include "isa/assembler.hh"

using namespace ser;
using harness::Table;

namespace
{

/** A toy histogram kernel over a 1 MB buffer (written in TIA64). */
const char *kernelSource = R"(
    .entry main
    main:
        movi r50 = 0x100000     // input buffer
        movi r51 = 0x300000     // histogram (256 bins)
        movi r61 = 99991        // lcg state
        movi r30 = 1103515245
        movi r31 = 12345
        movi r1 = 6000          // iterations
    loop:
        // synthesise an "input byte" and bin it
        mul r61 = r61, r30
        add r61 = r61, r31
        shri r8 = r61, 16
        andi r9 = r8, 131064    // wander a 1MB window (word-aligned)
        add r10 = r50, r9
        ld8 r11 = [r10, 0]
        andi r12 = r11, 255
        shli r13 = r12, 3
        add r14 = r51, r13
        ld8 r15 = [r14, 0]
        addi r15 = r15, 1
        st8 [r14, 0] = r15
        // a dead temporary, as real compilers leave behind
        add r20 = r12, r15
        addi r4 = r1, 0
        addi r1 = r1, -1
        cmplt p2 = r0, r1
        (p2) br loop
        // emit the checksum of a few bins
        ld8 r16 = [r51, 0]
        ld8 r17 = [r51, 8]
        add r18 = r16, r17
        out r18
        halt
)";

} // namespace

int
main(int argc, char **argv)
{
    harness::BenchOptions opts = harness::BenchOptions::parse(
        argc, argv, "End-to-end API tour on a hand-written kernel");
    harness::BenchOutput out(opts);
    auto program = std::make_shared<const isa::Program>(
        isa::assembleOrDie(kernelSource));
    std::cout << "assembled " << program->size()
              << " static instructions\n";

    // Both design points go through the experiment harness (instead
    // of raw pipelines): same parameters as before — no warmup, same
    // instruction cap — plus run manifests for --json, telemetry for
    // --metrics-out, and the shared run cache.
    auto run = [&](const char *trigger) {
        harness::ExperimentConfig cfg;
        cfg.dynamicTarget = 100'000;  // the kernel halts well before
        cfg.warmupInsts = 0;
        cfg.triggerLevel = trigger;
        cfg.triggerAction = "squash";
        cfg.pipeline.maxInsts = 1000000;
        return harness::runProgram(program, out.stamp(cfg),
                                   "histogram");
    };

    harness::RunArtifacts baseline = run("none");
    const avf::DeadnessResult &dead = *baseline.deadness;
    const avf::AvfResult &avf = *baseline.avf;

    harness::printHeading(std::cout, "baseline AVF breakdown");
    std::cout << avf.summary();
    std::cout << "IPC " << Table::fmt(baseline.ipc, 3) << ", "
              << baseline.trace->commits.size()
              << " committed instructions, "
              << Table::pct(dead.deadFraction())
              << " dynamically dead (" << dead.numFddReg
              << " FDD-reg, " << dead.numTddReg << " TDD-reg, "
              << dead.numFddMem + dead.numTddMem << " via memory)\n";

    harness::RunArtifacts squashed = run("l1");
    const avf::AvfResult &avf2 = *squashed.avf;
    harness::printHeading(std::cout, "with squash-on-L1-miss");
    std::cout << "IPC " << Table::fmt(squashed.ipc, 3) << " ("
              << Table::pct(squashed.ipc / baseline.ipc - 1)
              << "), SDC AVF " << Table::pct(avf2.sdcAvf()) << " ("
              << Table::pct(avf2.sdcAvf() / avf.sdcAvf() - 1)
              << "), DUE AVF " << Table::pct(avf2.dueAvf()) << "\n";

    harness::printHeading(std::cout, "false-DUE tracking levels");
    std::cout << squashed.falseDue.summary();

    harness::printHeading(std::cout, "PET buffer sizing");
    Table pet({"entries", "FDD-reg coverage"});
    for (std::uint32_t size : {64u, 256u, 1024u, 4096u}) {
        auto cov = core::petCoverage(dead, size);
        pet.addRow({std::to_string(size),
                    Table::pct(cov.fracRegWithReturns())});
    }
    out.print("pet_sizing", pet);

    out.finish({baseline, squashed});
    return 0;
}
