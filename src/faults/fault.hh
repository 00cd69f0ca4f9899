/**
 * @file
 * Fault-site definitions for single-bit upsets.
 *
 * A fault site is (structure, unit, bit, cycle). In the instruction
 * queue the unit is a physical entry: bits 0..63 are the instruction
 * payload (see isa/encoding.hh for the field map), and the metadata
 * bits model the entry's valid bit, its parity bit, and the pi bit
 * the paper adds — the paper notes that a strike on the pi bit
 * itself is a false DUE event. In a register file the unit is an
 * architectural register and every bit is payload.
 */

#ifndef SER_FAULTS_FAULT_HH
#define SER_FAULTS_FAULT_HH

#include <cstdint>
#include <string>

namespace ser
{
namespace faults
{

/** Bit indices of an instruction-queue entry. */
constexpr int payloadBits = 64;
constexpr int validBit = 64;
constexpr int parityBit = 65;
constexpr int piBit = 66;
constexpr int entryBits = 67;  ///< payload + valid + parity + pi

/** Structures a fault can strike. */
enum class Structure : std::uint8_t
{
    Iq,
    IntRegFile,
    FpRegFile,
    PredRegFile,
};

const char *structureName(Structure structure);

/** One single-bit upset. */
struct FaultSite
{
    std::uint16_t entry;  ///< queue entry, or register number
    std::uint8_t bit;     ///< 0..66 in the IQ, 0..63 in a register
    std::uint64_t cycle;  ///< when the strike lands
    Structure structure = Structure::Iq;

    bool isPayload() const { return bit < payloadBits; }
    bool operator==(const FaultSite &) const = default;
};

/** Protection configured on the struck structure. */
enum class Protection : std::uint8_t
{
    None,    ///< unprotected: strikes can cause SDC
    Parity,  ///< detect-only: strikes on read state become DUE
    Ecc,     ///< detect-and-correct: single-bit strikes are benign
};

/** The paper's Figure 1 outcome taxonomy. */
enum class Outcome : std::uint8_t
{
    BenignNoBit,      ///< 1: fault-free entry state (idle/unread)
    BenignNotRead,    ///< 2a: bit read-protected by squash/eviction
    Corrected,        ///< 2b: bit affected, corrected (ECC)
    BenignNoError,    ///< 3: read, but does not matter (un-ACE)
    Sdc,              ///< 4: silent data corruption
    FalseDue,         ///< 5: detected, but would not have mattered
    TrueDue,          ///< 6: detected, and would have mattered
    NumOutcomes
};

constexpr int numOutcomes = static_cast<int>(Outcome::NumOutcomes);

const char *outcomeName(Outcome outcome);

const char *protectionName(Protection protection);

/** The inverse of protectionName(); fatal on any other name. */
Protection parseProtection(const std::string &name);

} // namespace faults
} // namespace ser

#endif // SER_FAULTS_FAULT_HH
