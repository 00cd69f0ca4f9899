#include "assembler.hh"

#include <cctype>
#include <cstdlib>
#include <map>
#include <utility>
#include <vector>

#include "sim/logging.hh"

namespace ser
{
namespace isa
{

namespace
{

/** A pending label reference in an immediate slot. */
struct Fixup
{
    std::size_t instIndex;
    std::string label;
    bool wantsIndex;  ///< true: instruction index; false: code address
    int line;
};

/** Split a line into tokens; punctuation chars are their own tokens. */
std::vector<std::string>
tokenize(std::string_view line)
{
    std::vector<std::string> tokens;
    std::string current;
    auto flush = [&]() {
        if (!current.empty()) {
            tokens.push_back(current);
            current.clear();
        }
    };
    for (std::size_t i = 0; i < line.size(); ++i) {
        char c = line[i];
        if (c == '/' && i + 1 < line.size() && line[i + 1] == '/')
            break;
        if (c == '#')
            break;
        if (std::isspace(static_cast<unsigned char>(c))) {
            flush();
        } else if (c == ',' || c == '=' || c == '[' || c == ']' ||
                   c == '(' || c == ')' || c == ':') {
            flush();
            tokens.push_back(std::string(1, c));
        } else {
            current.push_back(c);
        }
    }
    flush();
    return tokens;
}

/** Parser state for one source text. */
class Parser
{
  public:
    explicit Parser(std::string_view source) : _source(source) {}

    /** 'data' words follow the source's own .word data. */
    AsmResult run(std::vector<DataInit> data);

  private:
    // --- token-stream helpers over the current line ---
    bool atEnd() const { return _pos >= _tokens.size(); }
    const std::string &peek() const { return _tokens[_pos]; }
    const std::string &take() { return _tokens[_pos++]; }

    bool expect(const std::string &tok);
    bool parseReg(RegClass rc, std::uint8_t &out);
    bool parseImmOrLabel(std::int32_t &imm, bool &is_label,
                         std::string &label);
    bool parseNumber(const std::string &tok, std::int64_t &out);

    void fail(const std::string &msg);

    bool parseLine();
    bool parseDirective();
    bool parseInstruction();
    bool parseOperands(Opcode op, std::uint8_t qp);

    // --- accumulated output ---
    std::string_view _source;
    std::vector<StaticInst> _insts;
    std::map<std::string, std::size_t> _labels;
    std::vector<DataInit> _data;
    std::vector<Fixup> _fixups;
    std::optional<AsmError> _error;
    std::string _entryLabel;

    std::vector<std::string> _tokens;
    std::size_t _pos = 0;
    int _line = 0;
    std::uint64_t _dataCursor = dataBase;
};

void
Parser::fail(const std::string &msg)
{
    if (!_error)
        _error = AsmError{_line, msg};
}

bool
Parser::expect(const std::string &tok)
{
    if (atEnd() || peek() != tok) {
        fail("expected '" + tok + "'" +
             (atEnd() ? " at end of line" : ", got '" + peek() + "'"));
        return false;
    }
    take();
    return true;
}

bool
Parser::parseNumber(const std::string &tok, std::int64_t &out)
{
    if (tok.empty())
        return false;
    const char *begin = tok.c_str();
    char *end = nullptr;
    out = std::strtoll(begin, &end, 0);
    return end && *end == '\0' && end != begin;
}

bool
Parser::parseReg(RegClass rc, std::uint8_t &out)
{
    if (atEnd()) {
        fail("expected register at end of line");
        return false;
    }
    std::string tok = take();
    char prefix = 0;
    int limit = 0;
    switch (rc) {
      case RegClass::Int: prefix = 'r'; limit = numIntRegs; break;
      case RegClass::Fp: prefix = 'f'; limit = numFpRegs; break;
      case RegClass::Pred: prefix = 'p'; limit = numPredRegs; break;
      case RegClass::None:
        fail("internal: parseReg(None)");
        return false;
    }
    if (tok.size() < 2 || tok[0] != prefix) {
        fail(std::string("expected ") + prefix + "-register, got '" +
             tok + "'");
        return false;
    }
    std::int64_t n;
    if (!parseNumber(tok.substr(1), n) || n < 0 || n >= limit) {
        fail("bad register '" + tok + "'");
        return false;
    }
    out = static_cast<std::uint8_t>(n);
    return true;
}

bool
Parser::parseImmOrLabel(std::int32_t &imm, bool &is_label,
                        std::string &label)
{
    if (atEnd()) {
        fail("expected immediate at end of line");
        return false;
    }
    std::string tok = take();
    std::int64_t n;
    if (parseNumber(tok, n)) {
        if (n < INT32_MIN || n > INT32_MAX) {
            fail("immediate out of 32-bit range: " + tok);
            return false;
        }
        imm = static_cast<std::int32_t>(n);
        is_label = false;
        return true;
    }
    // Otherwise it must be a label name.
    if (!std::isalpha(static_cast<unsigned char>(tok[0])) &&
        tok[0] != '_' && tok[0] != '.') {
        fail("expected immediate or label, got '" + tok + "'");
        return false;
    }
    label = tok;
    is_label = true;
    imm = 0;
    return true;
}

bool
Parser::parseDirective()
{
    std::string dir = take();
    if (dir == ".data") {
        std::int32_t imm;
        bool is_label;
        std::string label;
        if (!parseImmOrLabel(imm, is_label, label))
            return false;
        if (is_label) {
            fail(".data requires a numeric address");
            return false;
        }
        _dataCursor = static_cast<std::uint64_t>(
            static_cast<std::uint32_t>(imm));
        return true;
    }
    if (dir == ".word") {
        if (atEnd()) {
            fail(".word requires a value");
            return false;
        }
        std::int64_t n;
        std::string tok = take();
        if (!parseNumber(tok, n)) {
            fail(".word requires a numeric value, got '" + tok + "'");
            return false;
        }
        _data.push_back({_dataCursor, static_cast<std::uint64_t>(n)});
        _dataCursor += 8;
        return true;
    }
    if (dir == ".entry") {
        if (atEnd()) {
            fail(".entry requires a label");
            return false;
        }
        _entryLabel = take();
        return true;
    }
    fail("unknown directive '" + dir + "'");
    return false;
}

bool
Parser::parseOperands(Opcode op, std::uint8_t qp)
{
    const OpInfo &oi = opInfo(op);
    std::uint8_t dst = 0, src1 = 0, src2 = 0;
    std::int32_t imm = 0;
    bool is_label = false;
    std::string label;
    bool wants_index = (op == Opcode::Br || op == Opcode::Call);

    StaticInst inst;
    bool mem_form = oi.isMem && op != Opcode::Prefetch;
    if (op == Opcode::Prefetch) {
        // prefetch [rN, imm]
        if (!expect("[") || !parseReg(RegClass::Int, src1) ||
            !expect(",") ||
            !parseImmOrLabel(imm, is_label, label) || !expect("]"))
            return false;
    } else if (mem_form && oi.dstClass != RegClass::None) {
        // load: dst = [rN, imm]
        if (!parseReg(oi.dstClass, dst) || !expect("=") ||
            !expect("[") || !parseReg(RegClass::Int, src1) ||
            !expect(",") ||
            !parseImmOrLabel(imm, is_label, label) || !expect("]"))
            return false;
    } else if (mem_form) {
        // store: [rN, imm] = src2
        if (!expect("[") || !parseReg(RegClass::Int, src1) ||
            !expect(",") ||
            !parseImmOrLabel(imm, is_label, label) || !expect("]") ||
            !expect("=") || !parseReg(oi.src2Class, src2))
            return false;
    } else {
        // General form: [dst =] [src1[, src2][, imm]]
        if (oi.dstClass != RegClass::None) {
            if (!parseReg(oi.dstClass, dst) || !expect("="))
                return false;
        }
        bool first = true;
        auto sep = [&]() -> bool {
            if (first) {
                first = false;
                return true;
            }
            return expect(",");
        };
        if (oi.src1Class != RegClass::None) {
            if (!sep() || !parseReg(oi.src1Class, src1))
                return false;
        }
        if (oi.src2Class != RegClass::None) {
            if (!sep() || !parseReg(oi.src2Class, src2))
                return false;
        }
        if (oi.usesImm) {
            if (!sep() || !parseImmOrLabel(imm, is_label, label))
                return false;
        }
    }

    if (!atEnd()) {
        fail("trailing tokens after instruction: '" + peek() + "'");
        return false;
    }

    if (is_label)
        _fixups.push_back({_insts.size(), label, wants_index, _line});
    _insts.push_back(StaticInst(op, qp, dst, src1, src2, imm));
    return true;
}

bool
Parser::parseInstruction()
{
    std::uint8_t qp = 0;
    if (peek() == "(") {
        take();
        if (!parseReg(RegClass::Pred, qp) || !expect(")"))
            return false;
        if (atEnd()) {
            fail("qualifying predicate without an instruction");
            return false;
        }
    }
    std::string mnemonic = take();
    Opcode op;
    if (!opcodeFromMnemonic(mnemonic, op)) {
        fail("unknown mnemonic '" + mnemonic + "'");
        return false;
    }
    return parseOperands(op, qp);
}

bool
Parser::parseLine()
{
    // Leading labels ("name:"), possibly several on one line.
    while (_tokens.size() - _pos >= 2 && _tokens[_pos + 1] == ":") {
        const std::string &name = _tokens[_pos];
        if (!std::isalpha(static_cast<unsigned char>(name[0])) &&
            name[0] != '_') {
            fail("bad label name '" + name + "'");
            return false;
        }
        if (!_labels.emplace(name, _insts.size()).second) {
            fail("duplicate label '" + name + "'");
            return false;
        }
        _pos += 2;
    }
    if (atEnd())
        return true;
    if (peek()[0] == '.')
        return parseDirective();
    return parseInstruction();
}

AsmResult
Parser::run(std::vector<DataInit> data)
{
    std::size_t start = 0;
    while (start <= _source.size() && !_error) {
        auto nl = _source.find('\n', start);
        std::string_view line = _source.substr(
            start, nl == std::string_view::npos ? std::string_view::npos
                                                : nl - start);
        ++_line;
        _tokens = tokenize(line);
        _pos = 0;
        if (!_tokens.empty())
            parseLine();
        if (nl == std::string_view::npos)
            break;
        start = nl + 1;
    }

    // Resolve label fixups.
    for (const auto &fixup : _fixups) {
        if (_error)
            break;
        auto it = _labels.find(fixup.label);
        if (it == _labels.end()) {
            _error = AsmError{fixup.line,
                              "undefined label '" + fixup.label + "'"};
            break;
        }
        std::size_t target = it->second;
        StaticInst &inst = _insts[fixup.instIndex];
        std::int64_t value =
            fixup.wantsIndex
                ? static_cast<std::int64_t>(target)
                : static_cast<std::int64_t>(
                      Program::indexToAddr(target));
        inst = StaticInst(inst.opcode(), inst.qp(), inst.dst(),
                          inst.src1(), inst.src2(),
                          static_cast<std::int32_t>(value));
    }

    std::size_t entry = 0;
    if (!_error && !_entryLabel.empty()) {
        auto it = _labels.find(_entryLabel);
        if (it == _labels.end()) {
            _error = AsmError{0, "undefined entry label '" +
                                     _entryLabel + "'"};
        } else {
            entry = it->second;
        }
    }

    AsmResult result;
    result.error = _error;
    if (!_error) {
        data.insert(data.begin(), _data.begin(), _data.end());
        result.program = Program(std::move(_insts), std::move(_labels),
                                 entry, std::move(data));
    }
    return result;
}

} // namespace

AsmResult
assemble(std::string_view source, std::vector<DataInit> data)
{
    return Parser(source).run(std::move(data));
}

Program
assembleOrDie(std::string_view source, std::vector<DataInit> data)
{
    AsmResult result = assemble(source, std::move(data));
    if (!result.ok()) {
        SER_FATAL("assembler error at line {}: {}",
                  result.error->line, result.error->message);
    }
    return std::move(result.program);
}

} // namespace isa
} // namespace ser
