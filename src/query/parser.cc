#include "query/parser.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <vector>

#include "common/string_util.h"

namespace scube {
namespace query {

namespace {

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

enum class TokenType {
  kIdent,   ///< bare word: keyword, attribute, value or number
  kQuoted,  ///< 'quoted value' (never matches a keyword)
  kSymbol,  ///< = & | >= <= > <
  kEnd,
};

struct Token {
  TokenType type = TokenType::kEnd;
  std::string text;
  size_t col = 0;  ///< 1-based column in the query text
};

bool IsWordChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
         c == '.' || c == '-' || c == '+';
}

Result<std::vector<Token>> Lex(const std::string& text) {
  std::vector<Token> tokens;
  size_t i = 0;
  while (i < text.size()) {
    char c = text[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    size_t col = i + 1;
    if (c == '\'' || c == '"') {
      size_t end = text.find(c, i + 1);
      if (end == std::string::npos) {
        return Status::ParseError("col " + std::to_string(col) +
                                  ": unterminated quoted value");
      }
      tokens.push_back(
          {TokenType::kQuoted, text.substr(i + 1, end - i - 1), col});
      i = end + 1;
    } else if (c == '>' || c == '<') {
      std::string sym(1, c);
      if (i + 1 < text.size() && text[i + 1] == '=') sym += '=';
      tokens.push_back({TokenType::kSymbol, sym, col});
      i += sym.size();
    } else if (c == '=' || c == '&' || c == '|' || c == '@') {
      tokens.push_back({TokenType::kSymbol, std::string(1, c), col});
      ++i;
    } else if (IsWordChar(c)) {
      size_t end = i;
      while (end < text.size() && IsWordChar(text[end])) ++end;
      tokens.push_back({TokenType::kIdent, text.substr(i, end - i), col});
      i = end;
    } else {
      return Status::ParseError("col " + std::to_string(col) +
                                ": unexpected character '" +
                                std::string(1, c) + "'");
    }
  }
  tokens.push_back({TokenType::kEnd, "", text.size() + 1});
  return tokens;
}

std::string Lower(const std::string& s) {
  std::string out = s;
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return out;
}

// ---------------------------------------------------------------------------
// Recursive-descent parser
// ---------------------------------------------------------------------------

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Query> ParseQuery() {
    Query q;
    Token verb = Next();
    if (verb.type != TokenType::kIdent) {
      return Error(verb, "expected a query verb (SLICE, DICE, ROLLUP, "
                         "DRILLDOWN, TOPK, SURPRISES or REVERSALS)");
    }
    std::string kw = Lower(verb.text);
    if (kw == "slice") {
      q.verb = Verb::kSlice;
      SCUBE_RETURN_IF_ERROR(ParseCoords(&q, /*required=*/true));
    } else if (kw == "dice") {
      q.verb = Verb::kDice;
      SCUBE_RETURN_IF_ERROR(ParseCoords(&q, /*required=*/true));
    } else if (kw == "rollup") {
      q.verb = Verb::kRollup;
      SCUBE_RETURN_IF_ERROR(ParseCoords(&q, /*required=*/false));
    } else if (kw == "drilldown") {
      q.verb = Verb::kDrilldown;
      SCUBE_RETURN_IF_ERROR(ParseCoords(&q, /*required=*/false));
    } else if (kw == "topk") {
      q.verb = Verb::kTopK;
      SCUBE_ASSIGN_OR_RETURN(uint64_t k, ParseInt("TOPK count"));
      if (k == 0) return Error(Peek(), "TOPK count must be positive");
      q.k = static_cast<uint32_t>(k);
      if (!ConsumeKeyword("by")) {
        return Error(Peek(), "expected BY <index> after TOPK count");
      }
      SCUBE_ASSIGN_OR_RETURN(q.by, ParseIndexName());
    } else if (kw == "surprises" || kw == "reversals") {
      q.verb = kw == "surprises" ? Verb::kSurprises : Verb::kReversals;
      if (ConsumeKeyword("by")) {
        SCUBE_ASSIGN_OR_RETURN(q.by, ParseIndexName());
      }
      const char* thr = q.verb == Verb::kSurprises ? "mindelta" : "mingap";
      if (ConsumeKeyword(thr)) {
        SCUBE_ASSIGN_OR_RETURN(q.threshold, ParseDouble(thr));
      }
    } else {
      return Error(verb, "unknown verb '" + verb.text + "'");
    }

    if (ConsumeKeyword("from")) {
      Token name = Next();
      if (name.type != TokenType::kIdent) {
        return Error(name, "expected a cube name after FROM");
      }
      q.cube = name.text;
      // Exact sealed-version pin: FROM name@version.
      if (ConsumeSymbol("@")) {
        SCUBE_ASSIGN_OR_RETURN(uint64_t version, ParseInt("FROM version"));
        if (version == 0) {
          return Error(Peek(), "cube versions start at 1; '@0' never matches");
        }
        q.cube_version = version;
      }
    }
    if (ConsumeKeyword("where")) {
      SCUBE_RETURN_IF_ERROR(ParseWhere(&q));
    }
    if (ConsumeKeyword("order")) {
      if (!ConsumeKeyword("by")) return Error(Peek(), "expected BY after ORDER");
      SCUBE_RETURN_IF_ERROR(ParseOrderKey(&q));
    }
    if (ConsumeKeyword("limit")) {
      SCUBE_ASSIGN_OR_RETURN(uint64_t n, ParseInt("LIMIT"));
      // LIMIT 0 would page forever: every page is empty but the resume
      // cursor never advances. Reject it like TOPK 0.
      if (n == 0) {
        return Error(Peek(), "LIMIT must be positive (omit it for all rows)");
      }
      q.limit = n;
    }
    // OFFSET may follow LIMIT (the usual pagination pair) or stand alone
    // (skip a prefix of the row stream).
    if (ConsumeKeyword("offset")) {
      SCUBE_ASSIGN_OR_RETURN(uint64_t n, ParseInt("OFFSET"));
      q.offset = n;
    }
    Token rest = Peek();
    if (rest.type != TokenType::kEnd) {
      return Error(rest, "unexpected trailing input '" + rest.text + "'");
    }

    // Normalise coordinate order so equal queries compare (and cache) equal.
    auto normalise = [](std::vector<AttrValue>* items) {
      std::sort(items->begin(), items->end());
      items->erase(std::unique(items->begin(), items->end()), items->end());
    };
    normalise(&q.sa);
    normalise(&q.ca);
    return q;
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  Token Next() { return tokens_[std::min(pos_++, tokens_.size() - 1)]; }

  bool PeekKeyword(const char* kw) const {
    return Peek().type == TokenType::kIdent && Lower(Peek().text) == kw;
  }
  bool ConsumeKeyword(const char* kw) {
    if (!PeekKeyword(kw)) return false;
    ++pos_;
    return true;
  }

  static Status Error(const Token& at, const std::string& message) {
    return Status::ParseError("col " + std::to_string(at.col) + ": " +
                              message);
  }

  /// True when the next token starts a clause rather than coordinates.
  bool AtClauseBoundary() const {
    return Peek().type == TokenType::kEnd || PeekKeyword("from") ||
           PeekKeyword("where") || PeekKeyword("order") ||
           PeekKeyword("limit") || PeekKeyword("offset");
  }

  Status ParseCoords(Query* q, bool required) {
    if (AtClauseBoundary()) {
      if (required) {
        return Error(Peek(), "expected coordinates: sa=attr=value [& ...] "
                             "and/or ca=attr=value [& ...]");
      }
      return Status::OK();
    }
    SCUBE_RETURN_IF_ERROR(ParseCoordPart(q));
    if (Peek().type == TokenType::kSymbol && Peek().text == "|") {
      Next();
      SCUBE_RETURN_IF_ERROR(ParseCoordPart(q));
    }
    return Status::OK();
  }

  Status ParseCoordPart(Query* q) {
    Token axis = Next();
    std::string axis_kw = Lower(axis.text);
    if (axis.type != TokenType::kIdent ||
        (axis_kw != "sa" && axis_kw != "ca")) {
      return Error(axis, "expected 'sa=' or 'ca=' to start coordinates, got '" +
                             axis.text + "'");
    }
    if (!ConsumeSymbol("=")) {
      return Error(Peek(), "expected '=' after '" + axis.text + "'");
    }
    std::vector<AttrValue>* out = axis_kw == "sa" ? &q->sa : &q->ca;
    while (true) {
      Token attr = Next();
      if (attr.type != TokenType::kIdent) {
        return Error(attr, "expected an attribute name");
      }
      if (!ConsumeSymbol("=")) {
        return Error(Peek(), "expected '=' after attribute '" + attr.text +
                                 "', got '" + Peek().text + "'");
      }
      Token value = Next();
      if (value.type != TokenType::kIdent && value.type != TokenType::kQuoted) {
        return Error(value, "expected a value for attribute '" + attr.text +
                                "'");
      }
      out->push_back(AttrValue{attr.text, value.text});
      if (Peek().type == TokenType::kSymbol && Peek().text == "&") {
        Next();
        continue;
      }
      break;
    }
    return Status::OK();
  }

  Status ParseWhere(Query* q) {
    while (true) {
      Token field = Next();
      std::string f = Lower(field.text);
      if (field.type != TokenType::kIdent || (f != "t" && f != "m")) {
        return Error(field, "WHERE supports T >= <int> and M >= <int>, got '" +
                                field.text + "'");
      }
      Token op = Next();
      if (op.type != TokenType::kSymbol || op.text != ">=") {
        return Error(op, "only '>=' comparisons are supported in WHERE, "
                         "got '" + op.text + "'");
      }
      SCUBE_ASSIGN_OR_RETURN(uint64_t bound, ParseInt("WHERE bound"));
      if (f == "t") {
        q->min_t = bound;
      } else {
        q->min_m = bound;
      }
      if (!ConsumeKeyword("and")) break;
    }
    return Status::OK();
  }

  Status ParseOrderKey(Query* q) {
    Token key = Next();
    if (key.type != TokenType::kIdent) {
      return Error(key, "expected an ORDER BY key (T, M or an index name)");
    }
    OrderBy order;
    std::string k = Lower(key.text);
    if (k == "t") {
      order.key = OrderBy::Key::kContextSize;
    } else if (k == "m") {
      order.key = OrderBy::Key::kMinoritySize;
    } else {
      auto kind = indexes::IndexKindFromString(k);
      if (!kind.ok()) {
        return Error(key, "unknown ORDER BY key '" + key.text +
                              "' (use T, M or an index name)");
      }
      order.key = OrderBy::Key::kIndex;
      order.index = *kind;
    }
    if (ConsumeKeyword("asc")) {
      order.descending = false;
    } else if (ConsumeKeyword("desc")) {
      order.descending = true;
    }
    q->order = order;
    return Status::OK();
  }

  Result<indexes::IndexKind> ParseIndexName() {
    Token name = Next();
    if (name.type != TokenType::kIdent) {
      return Error(name, "expected an index name (dissimilarity, gini, "
                         "information, isolation, interaction, atkinson)");
    }
    auto kind = indexes::IndexKindFromString(Lower(name.text));
    if (!kind.ok()) {
      return Error(name, "unknown index '" + name.text + "'");
    }
    return *kind;
  }

  Result<uint64_t> ParseInt(const char* what) {
    Token tok = Next();
    if (tok.type != TokenType::kIdent) {
      return Error(tok, std::string("expected an integer for ") + what);
    }
    // strtoull silently wraps negative input; reject signs up front.
    if (!tok.text.empty() && (tok.text[0] == '-' || tok.text[0] == '+')) {
      return Error(tok, std::string("expected a non-negative integer for ") +
                            what + ", got '" + tok.text + "'");
    }
    char* end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(tok.text.c_str(), &end, 10);
    if (end != tok.text.c_str() + tok.text.size() || tok.text.empty() ||
        errno == ERANGE) {
      return Error(tok, std::string("expected an integer for ") + what +
                            ", got '" + tok.text + "'");
    }
    return static_cast<uint64_t>(v);
  }

  Result<double> ParseDouble(const char* what) {
    Token tok = Next();
    if (tok.type != TokenType::kIdent) {
      return Error(tok, std::string("expected a number for ") + what);
    }
    // Finite only: a nan threshold would make every comparison false.
    auto v = scube::ParseDouble(tok.text);
    if (!v.ok()) {
      return Error(tok, std::string("expected a finite number for ") + what +
                            ", got '" + tok.text + "'");
    }
    return *v;
  }

  bool ConsumeSymbol(const char* sym) {
    if (Peek().type == TokenType::kSymbol && Peek().text == sym) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<Query> Parse(const std::string& text) {
  SCUBE_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(text));
  return Parser(std::move(tokens)).ParseQuery();
}

}  // namespace query
}  // namespace scube
