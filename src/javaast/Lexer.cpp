//===- javaast/Lexer.cpp ---------------------------------------------------===//
//
// Table-driven scanner. The hot loops dispatch on a 256-entry byte-class
// table instead of per-character <cctype> calls; identifier runs use a
// SWAR fast path (eight bytes per step); escape-free strings and both
// comment forms scan with memchr. Observable behavior — token kinds,
// spellings, locations, diagnostics — is byte-identical to the retained
// per-character seed scanner in tests/oracles (enforced by
// test_frontend_equivalence and test_lexer_fuzz).
//
//===----------------------------------------------------------------------===//

#include "javaast/Lexer.h"

#include <array>
#include <bit>
#include <cstring>
#include <string>

using namespace diffcode::java;

namespace {

constexpr std::array<std::uint8_t, 256> buildCharClass() {
  using namespace charclass;
  std::array<std::uint8_t, 256> T{};
  for (int C = 'A'; C <= 'Z'; ++C)
    T[C] |= IdentStart | IdentCont;
  for (int C = 'a'; C <= 'z'; ++C)
    T[C] |= IdentStart | IdentCont;
  T['_'] |= IdentStart | IdentCont;
  T['$'] |= IdentStart | IdentCont;
  for (int C = '0'; C <= '9'; ++C)
    T[C] |= IdentCont | Digit | HexDigit;
  for (int C = 'A'; C <= 'F'; ++C)
    T[C] |= HexDigit;
  for (int C = 'a'; C <= 'f'; ++C)
    T[C] |= HexDigit;
  T[' '] |= Whitespace;
  T['\t'] |= Whitespace;
  T['\r'] |= Whitespace;
  T['\n'] |= Whitespace | StringStop;
  T['"'] |= StringStop;
  T['\\'] |= StringStop;
  for (char C : {'_', '.', 'x', 'X', 'b', 'B', 'L', 'l', 'f', 'F', 'd', 'D'})
    T[static_cast<unsigned char>(C)] |= NumExtend;
  return T;
}

constexpr std::array<std::uint8_t, 256> CharClass = buildCharClass();

inline std::uint8_t classOf(char C) {
  return CharClass[static_cast<unsigned char>(C)];
}

/// First-byte dispatch for the token loop: one table load folds the whole
/// "what kind of token starts here" decision into a single switch with
/// few, hot targets (every one-char punctuator shares one case instead of
/// owning a jump-table entry).
enum class Act : std::uint8_t {
  Bad = 0,  ///< no token starts with this byte
  Ws,       ///< whitespace: consumed by the trivia loop
  Slash,    ///< '/': comment opener or division operator
  Simple,   ///< one-char punctuator, kind from SimpleKind
  Compound, ///< punctuator needing lookahead ('=', '+', '.', ...)
  Ident,
  Number,
  Str,
  Chr,
};

struct DispatchTables {
  std::array<Act, 256> Action{};
  std::array<TokenKind, 256> Simple{};
};

constexpr DispatchTables buildDispatch() {
  DispatchTables T{};
  for (int C = 0; C < 256; ++C)
    T.Action[C] = Act::Bad;
  auto Simple = [&T](char C, TokenKind K) {
    T.Action[static_cast<unsigned char>(C)] = Act::Simple;
    T.Simple[static_cast<unsigned char>(C)] = K;
  };
  Simple('{', TokenKind::LBrace);
  Simple('}', TokenKind::RBrace);
  Simple('(', TokenKind::LParen);
  Simple(')', TokenKind::RParen);
  Simple('[', TokenKind::LBracket);
  Simple(']', TokenKind::RBracket);
  Simple(';', TokenKind::Semi);
  Simple(',', TokenKind::Comma);
  Simple('@', TokenKind::At);
  Simple('?', TokenKind::Question);
  Simple('%', TokenKind::Percent);
  Simple('~', TokenKind::Tilde);
  Simple('^', TokenKind::Caret);
  for (char C : {'.', ':', '=', '+', '-', '*', '!', '&', '|', '<', '>'})
    T.Action[static_cast<unsigned char>(C)] = Act::Compound;
  T.Action[static_cast<unsigned char>('/')] = Act::Slash;
  // Single-char kinds for the compound openers: lexAll emits these
  // directly when the next byte cannot extend the operator (every
  // two-char operator's second byte is '=', the same char, or '->').
  T.Simple[static_cast<unsigned char>('.')] = TokenKind::Dot;
  T.Simple[static_cast<unsigned char>(':')] = TokenKind::Colon;
  T.Simple[static_cast<unsigned char>('=')] = TokenKind::Assign;
  T.Simple[static_cast<unsigned char>('+')] = TokenKind::Plus;
  T.Simple[static_cast<unsigned char>('-')] = TokenKind::Minus;
  T.Simple[static_cast<unsigned char>('*')] = TokenKind::Star;
  T.Simple[static_cast<unsigned char>('/')] = TokenKind::Slash;
  T.Simple[static_cast<unsigned char>('!')] = TokenKind::Not;
  T.Simple[static_cast<unsigned char>('&')] = TokenKind::Amp;
  T.Simple[static_cast<unsigned char>('|')] = TokenKind::Pipe;
  T.Simple[static_cast<unsigned char>('<')] = TokenKind::Less;
  T.Simple[static_cast<unsigned char>('>')] = TokenKind::Greater;
  for (char C : {' ', '\t', '\r', '\n'})
    T.Action[static_cast<unsigned char>(C)] = Act::Ws;
  for (int C = 'A'; C <= 'Z'; ++C)
    T.Action[C] = Act::Ident;
  for (int C = 'a'; C <= 'z'; ++C)
    T.Action[C] = Act::Ident;
  T.Action[static_cast<unsigned char>('_')] = Act::Ident;
  T.Action[static_cast<unsigned char>('$')] = Act::Ident;
  for (int C = '0'; C <= '9'; ++C)
    T.Action[C] = Act::Number;
  T.Action[static_cast<unsigned char>('"')] = Act::Str;
  T.Action[static_cast<unsigned char>('\'')] = Act::Chr;
  return T;
}

constexpr DispatchTables Dispatch = buildDispatch();

#if defined(__BYTE_ORDER__) && defined(__ORDER_LITTLE_ENDIAN__) &&             \
    __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
#define DIFFCODE_LEXER_SWAR 1
#endif

#ifdef DIFFCODE_LEXER_SWAR
/// Returns a word with 0x80 set in every byte lane that is NOT an ASCII
/// identifier-continuation byte [A-Za-z0-9_$]. All lane tests below are
/// borrow-free (each subtrahend lane is pre-biased with 0x80), so every
/// lane classifies exactly — countr_zero on the result yields the first
/// stop byte.
inline std::uint64_t nonIdentLanes(std::uint64_t W) {
  constexpr std::uint64_t L = 0x0101010101010101ULL;
  constexpr std::uint64_t H = 0x8080808080808080ULL;
  std::uint64_t NonAscii = W & H;
  std::uint64_t V = W & ~H; // 7-bit lane values
  // letter: case-fold, then range-test ['a','z'].
  std::uint64_t F = V | (0x20 * L);
  std::uint64_t Letter =
      ((F | H) - 0x61 * L) & (((0x7A * L) | H) - F) & H;
  std::uint64_t Digit =
      ((V | H) - 0x30 * L) & (((0x39 * L) | H) - V) & H;
  auto Eq = [&](std::uint64_t C) {
    std::uint64_t X = V ^ (C * L);
    return ~((X | H) - L) & H;
  };
  std::uint64_t Ident =
      (Letter | Digit | Eq(0x5F) | Eq(0x24)) & ~NonAscii;
  return ~Ident & H;
}
#endif

inline unsigned hexValue(char H) {
  return H <= '9' ? static_cast<unsigned>(H - '0')
                  : static_cast<unsigned>((H | 0x20) - 'a') + 10;
}

} // namespace

Lexer::Lexer(std::string_view Buffer, DiagnosticsEngine &Diags)
    : Buffer(Buffer), Diags(Diags) {
  // Line-offset table, built once: locations derive from it instead of
  // per-character line/column counters on the scan path.
  LineStarts.reserve(Buffer.size() / 32 + 2);
  LineStarts.push_back(0);
  const char *Data = Buffer.data();
  std::size_t N = Buffer.size();
  std::size_t P = 0;
  while (P < N) {
    const void *Nl = std::memchr(Data + P, '\n', N - P);
    if (!Nl)
      break;
    P = static_cast<std::size_t>(static_cast<const char *>(Nl) - Data) + 1;
    LineStarts.push_back(static_cast<std::uint32_t>(P));
  }
  NextLineStart = LineStarts.size() > 1 ? LineStarts[1] : UINT32_MAX;
}

SourceLocation Lexer::locAt(std::size_t Offset) {
  // Hot path: the offset is still on the cached line — no vector loads.
  while (Offset >= NextLineStart) {
    ++LineCursor;
    CurLineStart = LineStarts[LineCursor];
    NextLineStart =
        LineCursor + 1 < LineStarts.size() ? LineStarts[LineCursor + 1]
                                           : UINT32_MAX;
  }
  return {static_cast<std::uint32_t>(LineCursor + 1),
          static_cast<std::uint32_t>(Offset - CurLineStart + 1),
          static_cast<std::uint32_t>(Offset)};
}

std::string_view Lexer::internDecoded(std::string_view Decoded) {
  return Stream.Storage.copy(Decoded);
}

namespace {

/// One past the last identifier-continuation byte of the run starting at
/// \p P (whose first byte is already classified IdentStart). Shared by
/// the token-at-a-time path and the fully inlined lexAll loop.
inline std::size_t scanIdentEnd(const char *Data, std::size_t N,
                                std::size_t P) {
  ++P; // first byte already classified IdentStart
#ifdef DIFFCODE_LEXER_SWAR
  while (P + 8 <= N) {
    std::uint64_t W;
    std::memcpy(&W, Data + P, 8);
    std::uint64_t Stop = nonIdentLanes(W);
    if (Stop) {
      P += static_cast<std::size_t>(std::countr_zero(Stop)) >> 3;
      break;
    }
    P += 8;
  }
  // Either stopped on a non-identifier byte (the tail loop exits at once)
  // or fewer than 8 bytes remain; the table loop finishes both cases.
#endif
  while (P < N && (classOf(Data[P]) & charclass::IdentCont))
    ++P;
  return P;
}

} // namespace

void Lexer::lexIdentifierOrKeyword(Token &T) {
  std::size_t Start = Pos;
  std::size_t P = scanIdentEnd(Buffer.data(), Buffer.size(), Start);
  Pos = P;
  std::string_view Text = Buffer.substr(Start, P - Start);
  T.Kind = lookupKeyword(Text);
  T.Text = Text;
}

Token Lexer::lexNumber(SourceLocation Loc) {
  const char *Data = Buffer.data();
  std::size_t N = Buffer.size();
  std::size_t Start = Pos;
  bool IsHex = false;
  // Java allows '_' separators inside numeric literals (1_000_000).
  if (Data[Pos] == '0' && Pos + 1 < N &&
      (Data[Pos + 1] == 'x' || Data[Pos + 1] == 'X')) {
    Pos += 2;
    IsHex = true;
    while (Pos < N &&
           ((classOf(Data[Pos]) & charclass::HexDigit) || Data[Pos] == '_'))
      ++Pos;
  } else if (Data[Pos] == '0' && Pos + 1 < N &&
             (Data[Pos + 1] == 'b' || Data[Pos + 1] == 'B')) {
    Pos += 2;
    IsHex = true; // no fractional part either
    while (Pos < N &&
           (Data[Pos] == '0' || Data[Pos] == '1' || Data[Pos] == '_'))
      ++Pos;
  } else {
    while (Pos < N &&
           ((classOf(Data[Pos]) & charclass::Digit) || Data[Pos] == '_'))
      ++Pos;
  }
  // Fractional part (parsed but treated as an opaque literal; the abstract
  // domains in Figure 3 only track ints, strings, and bytes).
  if (!IsHex && peek() == '.' && (classOf(peek(1)) & charclass::Digit)) {
    ++Pos;
    while (Pos < N && (classOf(Data[Pos]) & charclass::Digit))
      ++Pos;
  }
  TokenKind Kind = TokenKind::IntLiteral;
  char Suffix = peek();
  if (Suffix == 'L' || Suffix == 'l') {
    ++Pos;
    Kind = TokenKind::LongLiteral;
  } else if (Suffix == 'f' || Suffix == 'F' || Suffix == 'd' ||
             Suffix == 'D') {
    ++Pos;
  }
  return makeToken(Kind, Loc, Buffer.substr(Start, Pos - Start));
}

char Lexer::lexEscape() {
  if (atEnd())
    return '\\';
  char C = Buffer[Pos++];
  switch (C) {
  case 'n':
    return '\n';
  case 't':
    return '\t';
  case 'r':
    return '\r';
  case 'b':
    return '\b';
  case 'f':
    return '\f';
  case '0':
    return '\0';
  case '\'':
  case '"':
  case '\\':
    return C;
  case 'u': {
    // \uXXXX: decode and narrow to one byte (best effort; the corpus is
    // ASCII). Consumes up to four hex digits.
    unsigned Value = 0;
    for (int I = 0;
         I < 4 && !atEnd() && (classOf(Buffer[Pos]) & charclass::HexDigit);
         ++I) {
      Value = Value * 16 + hexValue(Buffer[Pos]);
      ++Pos;
    }
    return static_cast<char>(Value & 0xFF);
  }
  default:
    return C;
  }
}

Token Lexer::lexString(SourceLocation Loc) {
  const char *Data = Buffer.data();
  std::size_t N = Buffer.size();
  std::size_t ContentStart = Pos + 1; // past opening quote
  std::size_t P = ContentStart;
  while (P < N && !(classOf(Data[P]) & charclass::StringStop))
    ++P;
  if (P < N && Data[P] == '"') {
    // Fast path: no escapes — the spelling views straight into the buffer.
    Pos = P + 1;
    return makeToken(TokenKind::StringLiteral, Loc,
                     Buffer.substr(ContentStart, P - ContentStart));
  }
  if (P >= N || Data[P] == '\n') {
    // Unterminated with no escapes: content still views into the buffer.
    Pos = P;
    Diags.error(Loc, "unterminated string literal");
    return makeToken(TokenKind::StringLiteral, Loc,
                     Buffer.substr(ContentStart, P - ContentStart));
  }
  // Slow path: an escape is present — decode into the stream arena.
  Pos = ContentStart;
  std::string Decoded;
  Decoded.reserve(P - ContentStart + 8);
  while (!atEnd() && Buffer[Pos] != '"' && Buffer[Pos] != '\n') {
    char C = Buffer[Pos++];
    if (C == '\\')
      C = lexEscape();
    Decoded += C;
  }
  if (atEnd() || Buffer[Pos] == '\n')
    Diags.error(Loc, "unterminated string literal");
  else
    ++Pos; // closing quote
  return makeToken(TokenKind::StringLiteral, Loc, internDecoded(Decoded));
}

Token Lexer::lexChar(SourceLocation Loc) {
  ++Pos; // opening quote
  std::string_view Text;
  if (!atEnd() && peek() != '\'') {
    char C = Buffer[Pos++];
    if (C == '\\') {
      char Decoded = lexEscape();
      Text = internDecoded({&Decoded, 1});
    } else {
      Text = Buffer.substr(Pos - 1, 1);
    }
  }
  if (!match('\''))
    Diags.error(Loc, "unterminated char literal");
  return makeToken(TokenKind::CharLiteral, Loc, Text);
}

Token Lexer::lexCompound(SourceLocation Loc) {
  char C = Buffer[Pos++];
  switch (C) {
  case '.':
    if (peek() == '.' && peek(1) == '.') {
      Pos += 2;
      return makeToken(TokenKind::Ellipsis, Loc, "...");
    }
    return makeToken(TokenKind::Dot, Loc, ".");
  case ':':
    if (match(':'))
      return makeToken(TokenKind::ColonColon, Loc, "::");
    return makeToken(TokenKind::Colon, Loc, ":");
  case '=':
    if (match('='))
      return makeToken(TokenKind::EqualEqual, Loc, "==");
    return makeToken(TokenKind::Assign, Loc, "=");
  case '+':
    if (match('='))
      return makeToken(TokenKind::PlusAssign, Loc, "+=");
    if (match('+'))
      return makeToken(TokenKind::PlusPlus, Loc, "++");
    return makeToken(TokenKind::Plus, Loc, "+");
  case '-':
    if (match('='))
      return makeToken(TokenKind::MinusAssign, Loc, "-=");
    if (match('-'))
      return makeToken(TokenKind::MinusMinus, Loc, "--");
    if (match('>'))
      return makeToken(TokenKind::Arrow, Loc, "->");
    return makeToken(TokenKind::Minus, Loc, "-");
  case '*':
    if (match('='))
      return makeToken(TokenKind::StarAssign, Loc, "*=");
    return makeToken(TokenKind::Star, Loc, "*");
  case '/':
    if (match('='))
      return makeToken(TokenKind::SlashAssign, Loc, "/=");
    return makeToken(TokenKind::Slash, Loc, "/");
  case '!':
    if (match('='))
      return makeToken(TokenKind::NotEqual, Loc, "!=");
    return makeToken(TokenKind::Not, Loc, "!");
  case '&':
    if (match('&'))
      return makeToken(TokenKind::AmpAmp, Loc, "&&");
    return makeToken(TokenKind::Amp, Loc, "&");
  case '|':
    if (match('|'))
      return makeToken(TokenKind::PipePipe, Loc, "||");
    return makeToken(TokenKind::Pipe, Loc, "|");
  case '<':
    if (match('='))
      return makeToken(TokenKind::LessEqual, Loc, "<=");
    if (match('<'))
      return makeToken(TokenKind::Shl, Loc, "<<");
    return makeToken(TokenKind::Less, Loc, "<");
  default: // '>'
    if (match('='))
      return makeToken(TokenKind::GreaterEqual, Loc, ">=");
    if (match('>'))
      return makeToken(TokenKind::Shr, Loc, ">>");
    return makeToken(TokenKind::Greater, Loc, ">");
  }
}

#if defined(__GNUC__)
__attribute__((noinline))
#endif
void Lexer::skipComment() {
  // Kept out of line on purpose: inlining the comment scanners into the
  // per-token dispatch loops costs more in register pressure (spills on
  // every token) than the call costs on the rare comment.
  const char *Data = Buffer.data();
  const std::size_t N = Buffer.size();
  std::size_t P = Pos;
  if (Data[P + 1] == '/') {
    const void *Nl = std::memchr(Data + P + 2, '\n', N - P - 2);
    Pos = Nl ? static_cast<std::size_t>(static_cast<const char *>(Nl) - Data)
             : N;
    return;
  }
  SourceLocation Start = locAt(P);
  std::size_t Q = P + 2;
  bool Closed = false;
  while (Q < N) {
    const void *Star = std::memchr(Data + Q, '*', N - Q);
    if (!Star)
      break;
    Q = static_cast<std::size_t>(static_cast<const char *>(Star) - Data);
    if (Q + 1 < N && Data[Q + 1] == '/') {
      Q += 2;
      Closed = true;
      break;
    }
    ++Q;
  }
  Pos = Closed ? Q : N;
  if (!Closed)
    Diags.error(Start, "unterminated block comment");
}

void Lexer::nextInto(Token &T) {
  const char *Data = Buffer.data();
  const std::size_t N = Buffer.size();
  std::size_t P = Pos;
  unsigned char C = 0;
  Act A = Act::Bad;
  // Fused trivia + dispatch loop: one table load classifies each byte
  // both as trivia and as a token opener, so the token's first byte is
  // never classified twice.
  for (;;) {
    if (P >= N) {
      Pos = P;
      T.Loc = locAt(P);
      T.Kind = TokenKind::EndOfFile;
      T.Text = {};
      return;
    }
    C = static_cast<unsigned char>(Data[P]);
    A = Dispatch.Action[C];
    if (A == Act::Ws) {
      ++P;
      continue;
    }
    if (A == Act::Slash && P + 1 < N &&
        (Data[P + 1] == '/' || Data[P + 1] == '*')) {
      Pos = P;
      skipComment();
      P = Pos;
      continue;
    }
    break;
  }

  Pos = P;
  T.Loc = locAt(P);
  switch (A) {
  case Act::Ident:
    lexIdentifierOrKeyword(T);
    return;
  case Act::Simple:
    // Every one-char punctuator funnels through this single case; the
    // spelling views into the buffer (same bytes as the literal).
    T.Kind = Dispatch.Simple[C];
    T.Text = Buffer.substr(P, 1);
    Pos = P + 1;
    return;
  case Act::Compound:
  case Act::Slash:
    T = lexCompound(T.Loc);
    return;
  case Act::Number:
    T = lexNumber(T.Loc);
    return;
  case Act::Str:
    T = lexString(T.Loc);
    return;
  case Act::Chr:
    T = lexChar(T.Loc);
    return;
  default:
    break;
  }
  Pos = P + 1;
  Diags.error(T.Loc, std::string("unexpected character '") +
                         static_cast<char>(C) + "'");
  T.Kind = TokenKind::Unknown;
  T.Text = Buffer.substr(P, 1);
}

Token Lexer::next() {
  Token T;
  nextInto(T);
  return T;
}

TokenStream Lexer::lexAll() {
  // The whole-buffer scan keeps its state (cursor, line bounds) in locals
  // so it stays in registers across tokens; nextInto pays a full call's
  // worth of member reloads per token, which dominates at corpus scale.
  // Cold token kinds (literals, operators, errors) sync the locals
  // through the members and reuse the token-at-a-time helpers.
  std::vector<Token> &Toks = Stream.Tokens;
  Toks.reserve(Buffer.size() / 4 + 8);
  const char *Data = Buffer.data();
  const std::size_t N = Buffer.size();
  const std::uint32_t *LS = LineStarts.data();
  const std::size_t NumLines = LineStarts.size();
  std::size_t P = Pos;
  std::size_t Cursor = LineCursor;
  std::uint32_t CurStart = CurLineStart;
  std::uint32_t NextStart = NextLineStart;

  for (;;) {
    unsigned char C = 0;
    Act A = Act::Bad;
    bool AtEof = false;
    // Fused trivia + dispatch loop (same shape as nextInto).
    for (;;) {
      if (P >= N) {
        AtEof = true;
        break;
      }
      C = static_cast<unsigned char>(Data[P]);
      A = Dispatch.Action[C];
      if (A == Act::Ws) {
        ++P;
        continue;
      }
      if (A == Act::Slash && P + 1 < N &&
          (Data[P + 1] == '/' || Data[P + 1] == '*')) {
        // Out of line: keeping the comment scanners' registers out of
        // this loop stops the per-token path from spilling.
        Pos = P;
        LineCursor = Cursor;
        CurLineStart = CurStart;
        NextLineStart = NextStart;
        skipComment();
        P = Pos;
        Cursor = LineCursor;
        CurStart = CurLineStart;
        NextStart = NextLineStart;
        continue;
      }
      break;
    }

    while (P >= NextStart) {
      ++Cursor;
      CurStart = LS[Cursor];
      NextStart = Cursor + 1 < NumLines ? LS[Cursor + 1] : UINT32_MAX;
    }
    SourceLocation Loc{static_cast<std::uint32_t>(Cursor + 1),
                       static_cast<std::uint32_t>(P - CurStart + 1),
                       static_cast<std::uint32_t>(P)};
    Token &T = Toks.emplace_back();
    T.Loc = Loc;

    if (AtEof) {
      T.Kind = TokenKind::EndOfFile;
      T.Text = {};
      Pos = P;
      LineCursor = Cursor;
      CurLineStart = CurStart;
      NextLineStart = NextStart;
      return std::move(Stream);
    }

    switch (A) {
    case Act::Ident: {
      std::size_t End = scanIdentEnd(Data, N, P);
      std::string_view Text(Data + P, End - P);
      T.Kind = lookupKeyword(Text);
      T.Text = Text;
      P = End;
      continue;
    }
    case Act::Simple:
      T.Kind = Dispatch.Simple[C];
      T.Text = std::string_view(Data + P, 1);
      ++P;
      continue;
    case Act::Compound:
    case Act::Slash: {
      // Fast path: the next byte cannot extend the operator, so this is
      // the one-char token from the Simple table. Spurious slow-path
      // trips (e.g. "&=", which is Amp then Assign) stay correct —
      // lexCompound re-derives the token from scratch.
      unsigned char Next = P + 1 < N ? static_cast<unsigned char>(Data[P + 1])
                                     : 0;
      if (Next != '=' && Next != C && !(C == '-' && Next == '>')) {
        T.Kind = Dispatch.Simple[C];
        T.Text = std::string_view(Data + P, 1);
        ++P;
        continue;
      }
      Pos = P;
      T = lexCompound(Loc);
      P = Pos;
      continue;
    }
    case Act::Number: {
      // Fast path: plain decimal int — no prefix, separator, fraction, or
      // suffix byte after the digit run (the NumExtend class catches all
      // of those, so the general scanner only runs when one is present).
      std::size_t Q = P;
      while (Q < N && (classOf(Data[Q]) & charclass::Digit))
        ++Q;
      if (Q >= N || !(classOf(Data[Q]) & charclass::NumExtend)) {
        T.Kind = TokenKind::IntLiteral;
        T.Text = std::string_view(Data + P, Q - P);
        P = Q;
        continue;
      }
      Pos = P;
      T = lexNumber(Loc);
      P = Pos;
      continue;
    }
    case Act::Str: {
      // Fast path: escape-free string closed on the same line — the
      // spelling views straight into the buffer.
      std::size_t Q = P + 1;
      while (Q < N && !(classOf(Data[Q]) & charclass::StringStop))
        ++Q;
      if (Q < N && Data[Q] == '"') {
        T.Kind = TokenKind::StringLiteral;
        T.Text = std::string_view(Data + P + 1, Q - P - 1);
        P = Q + 1;
        continue;
      }
      Pos = P;
      T = lexString(Loc);
      P = Pos;
      continue;
    }
    case Act::Chr:
      Pos = P;
      T = lexChar(Loc);
      P = Pos;
      continue;
    default: // Act::Bad
      Diags.error(Loc, std::string("unexpected character '") +
                           static_cast<char>(C) + "'");
      T.Kind = TokenKind::Unknown;
      T.Text = std::string_view(Data + P, 1);
      ++P;
      continue;
    }
  }
}
