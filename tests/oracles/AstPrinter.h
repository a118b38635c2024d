//===- oracles/AstPrinter.h - Java source re-emission ----------------------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pretty printer that renders the AST back to compilable Java-subset
/// source. A test oracle: the round-trip property tests check
/// print(parse(print(T))) == print(T), and the front-end differential
/// compares printed trees from the production and reference lexers.
///
//===----------------------------------------------------------------------===//

#ifndef DIFFCODE_ORACLES_ASTPRINTER_H
#define DIFFCODE_ORACLES_ASTPRINTER_H

#include "javaast/Ast.h"

#include <string>

namespace diffcode {
namespace java {

/// Renders AST subtrees to text with two-space indentation.
class AstPrinter {
public:
  /// Prints a whole compilation unit.
  std::string print(const CompilationUnit *Unit);

  /// Prints a single expression (no trailing newline).
  std::string printExpr(const Expr *E);

  /// Prints a single statement at indent level 0.
  std::string printStmt(const Stmt *S);

private:
  void emitUnit(const CompilationUnit *Unit);
  void emitClass(const ClassDecl *Class, int Indent);
  void emitField(const FieldDecl *Field, int Indent);
  void emitMethod(const MethodDecl *Method, int Indent);
  void emitStmt(const Stmt *S, int Indent);
  void emitBlock(const Block *B, int Indent);
  void emitExpr(const Expr *E);
  void emitModifiers(unsigned Modifiers);
  void indent(int Level);
  void emitStringLiteral(const std::string &Value);

  std::string Out;
};

} // namespace java
} // namespace diffcode

#endif // DIFFCODE_ORACLES_ASTPRINTER_H
