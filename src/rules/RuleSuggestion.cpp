//===- rules/RuleSuggestion.cpp --------------------------------------------===//

#include "rules/RuleSuggestion.h"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <map>
#include <set>

using namespace diffcode;
using namespace diffcode::rules;
using namespace diffcode::usage;
using support::LabelId;
using support::PathId;

namespace {

bool isInteger(const std::string &Text) {
  if (Text.empty())
    return false;
  std::size_t Start = Text[0] == '-' ? 1 : 0;
  if (Start == Text.size())
    return false;
  for (std::size_t I = Start; I < Text.size(); ++I)
    if (!std::isdigit(static_cast<unsigned char>(Text[I])))
      return false;
  return true;
}

/// Converts the argument label of a feature path into a constraint; Any
/// when the value is a type name we cannot test directly.
ArgConstraint constraintFromLabel(const NodeLabel &Label) {
  ArgConstraint C;
  C.Index = Label.ArgIndex;
  if (Label.ValueIsString) {
    C.K = ArgConstraint::Kind::StrEquals;
    C.Values = {Label.Text};
    return C;
  }
  if (Label.Text == "constbyte[]" || Label.Text == "constbyte" ||
      Label.Text == "const" || Label.Text == "null" ||
      (!Label.Text.empty() && Label.Text.front() == '[')) {
    C.K = ArgConstraint::Kind::IsConstant;
    return C;
  }
  if (Label.Text.rfind("⊤", 0) == 0) {
    C.K = ArgConstraint::Kind::IsTop;
    return C;
  }
  if (isInteger(Label.Text)) {
    C.K = ArgConstraint::Kind::IntEquals;
    C.IntBound = std::stoll(Label.Text);
    return C;
  }
  // Type names and symbolic constants: presence of the argument position
  // is the testable part.
  C.K = ArgConstraint::Kind::Any;
  return C;
}

/// One feature path of a change, read label by label through the
/// change's interner (no FeaturePath copy).
struct PathView {
  const support::Interner &Table;
  const std::vector<LabelId> &Labels;

  PathView(const UsageChange &Change, PathId Id)
      : Table(*Change.Table), Labels(Change.Table->labelsOf(Id)) {}
  std::size_t size() const { return Labels.size(); }
  const NodeLabel &operator[](std::size_t I) const {
    return Table.labelAt(Labels[I]);
  }
};

/// Extracts (method signature, optional arg constraint) from the labels
/// after position \p Anchor of a feature path, read as [anchor, method,
/// arg?, ...]; nullopt when no method follows the anchor.
std::optional<CallPattern> patternFromPath(const PathView &Path,
                                           std::size_t Anchor = 0) {
  if (Path.size() < Anchor + 2 ||
      Path[Anchor + 1].K != NodeLabel::Kind::Method)
    return std::nullopt;
  CallPattern P;
  // DAG method labels are "Class.name" (no arity).
  const std::string &Sig = Path[Anchor + 1].Text;
  std::size_t Dot = Sig.rfind('.');
  if (Dot == std::string::npos)
    return std::nullopt;
  P.ClassName = Sig.substr(0, Dot);
  P.MethodName = Sig.substr(Dot + 1);
  P.Arity = -1;
  if (Path.size() >= Anchor + 3 &&
      Path[Anchor + 2].K == NodeLabel::Kind::Arg) {
    ArgConstraint C = constraintFromLabel(Path[Anchor + 2]);
    if (C.K != ArgConstraint::Kind::Any)
      P.Args.push_back(std::move(C));
    else
      P.Args.push_back(C); // keep index to require the argument exists
  }
  return P;
}

/// A pattern anchored at an object type — paths deeper than
/// root-method-arg describe usages of *nested* objects (e.g. the
/// IvParameterSpec passed to Cipher.init), which the rule language
/// expresses as a separate clause on that type.
struct TypedPattern {
  std::string TypeName;
  CallPattern Pattern;
};

/// Extracts the testable patterns of a feature path: the primary
/// (root-level) one, plus a nested-object pattern when the path descends
/// through an object-typed argument.
std::vector<TypedPattern> typedPatternsFromPath(const PathView &Path,
                                                const std::string &RootType) {
  std::vector<TypedPattern> Out;
  if (auto Primary = patternFromPath(Path))
    Out.push_back({RootType, std::move(*Primary)});
  // Nested: [root, m1, arg:Type, m2, arg:v, ...], anchored at arg:Type.
  if (Path.size() >= 4 && Path[2].K == NodeLabel::Kind::Arg &&
      !Path[2].ValueIsString && !Path[2].Text.empty() &&
      std::isupper(static_cast<unsigned char>(Path[2].Text[0])) &&
      Path[3].K == NodeLabel::Kind::Method) {
    if (auto Secondary = patternFromPath(Path, 2))
      Out.push_back({Path[2].Text, std::move(*Secondary)});
  }
  return Out;
}

/// True when the pattern carries a discriminating constraint (anything
/// beyond "the argument exists").
bool isDiscriminating(const CallPattern &P) {
  for (const ArgConstraint &C : P.Args)
    if (C.K != ArgConstraint::Kind::Any)
      return true;
  return false;
}

std::string patternKey(const std::string &TypeName, const CallPattern &P) {
  std::string Key = TypeName + "|" + P.ClassName + "." + P.MethodName;
  for (const ArgConstraint &C : P.Args) {
    Key += "|" + std::to_string(C.Index) + ":" +
           std::to_string(static_cast<int>(C.K)) + ":" +
           std::to_string(C.IntBound);
    for (const std::string &V : C.Values)
      Key += "," + V;
  }
  return Key;
}

} // namespace

std::optional<Rule> diffcode::rules::suggestRule(const UsageChange &Change,
                                                 const std::string &Id) {
  // Collect Exists atoms (removed features) and NotExists atoms (added
  // features), grouped by the object type they constrain.
  std::map<std::string, std::vector<ObjectFormula>> ConjunctsByType;
  std::map<std::string, int> ExistsKeys; // contradiction pruning

  for (PathId Id : Change.Removed)
    for (TypedPattern &TP :
         typedPatternsFromPath(PathView(Change, Id), Change.TypeName)) {
      ExistsKeys[patternKey(TP.TypeName, TP.Pattern)] = 1;
      ConjunctsByType[TP.TypeName].push_back(
          ObjectFormula::exists(std::move(TP.Pattern)));
    }
  for (PathId Id : Change.Added)
    for (TypedPattern &TP :
         typedPatternsFromPath(PathView(Change, Id), Change.TypeName)) {
      // Skip a NotExists that contradicts an Exists with the same
      // pattern — the diff was not discriminating at this level.
      if (ExistsKeys.count(patternKey(TP.TypeName, TP.Pattern)))
        continue;
      ConjunctsByType[TP.TypeName].push_back(
          ObjectFormula::notExists(std::move(TP.Pattern)));
    }

  // Vacuous suggestion: no atom constrains anything.
  bool AnyDiscriminating = false;
  for (const auto &[Type, Conjuncts] : ConjunctsByType)
    for (const ObjectFormula &F : Conjuncts)
      AnyDiscriminating = AnyDiscriminating || isDiscriminating(F.pattern());
  if (ConjunctsByType.empty() || !AnyDiscriminating)
    return std::nullopt;

  Rule R;
  R.Id = Id;
  R.Description =
      "auto-suggested from usage change of " + Change.TypeName;
  // The root-type clause comes first (it defines applicability).
  auto RootIt = ConjunctsByType.find(Change.TypeName);
  if (RootIt != ConjunctsByType.end()) {
    R.Clauses.push_back({Change.TypeName,
                         ObjectFormula::all(std::move(RootIt->second)),
                         false});
    ConjunctsByType.erase(RootIt);
  }
  for (auto &[Type, Conjuncts] : ConjunctsByType)
    R.Clauses.push_back({Type, ObjectFormula::all(std::move(Conjuncts)),
                         false});
  return R;
}

namespace {

/// Longest common prefix of a set of strings.
std::string commonPrefix(const std::vector<std::string> &Values) {
  if (Values.empty())
    return std::string();
  std::string Prefix = Values.front();
  for (const std::string &Value : Values) {
    std::size_t I = 0;
    while (I < Prefix.size() && I < Value.size() && Prefix[I] == Value[I])
      ++I;
    Prefix.resize(I);
  }
  return Prefix;
}

/// A (method, constraint) observation from one member's feature path.
struct Observation {
  std::string Key; ///< "Class.method".
  CallPattern Pattern;
};

std::vector<Observation> observations(const UsageChange &Change,
                                      const std::vector<PathId> &Paths) {
  std::vector<Observation> Out;
  for (PathId Id : Paths)
    if (auto Pattern = patternFromPath(PathView(Change, Id)))
      Out.push_back({Pattern->ClassName + "." + Pattern->MethodName,
                     std::move(*Pattern)});
  return Out;
}

} // namespace

std::optional<Rule> diffcode::rules::suggestRuleForCluster(
    const std::vector<usage::UsageChange> &Members, const std::string &Id) {
  if (Members.empty())
    return std::nullopt;
  if (Members.size() == 1)
    return suggestRule(Members.front(), Id);

  const std::string &TypeName = Members.front().TypeName;

  // Methods removed by every member, with their per-member constraints.
  std::map<std::string, std::vector<CallPattern>> RemovedByKey;
  std::map<std::string, std::vector<CallPattern>> AddedByKey;
  for (const usage::UsageChange &Member : Members) {
    if (Member.TypeName != TypeName)
      return std::nullopt; // clusters are per-class; bail on mixtures
    std::map<std::string, CallPattern> MemberRemoved;
    for (Observation &Obs : observations(Member, Member.Removed))
      MemberRemoved.emplace(Obs.Key, std::move(Obs.Pattern));
    for (auto &[Key, Pattern] : MemberRemoved)
      RemovedByKey[Key].push_back(Pattern);
    for (Observation &Obs : observations(Member, Member.Added))
      AddedByKey[Obs.Key].push_back(std::move(Obs.Pattern));
  }

  std::vector<ObjectFormula> Conjuncts;
  for (auto &[Key, Patterns] : RemovedByKey) {
    if (Patterns.size() != Members.size())
      continue; // not shared by every member

    CallPattern Merged = Patterns.front();
    // Merge the first argument constraint across members (the
    // path-derived patterns carry at most one).
    bool AllHaveArg = true;
    for (const CallPattern &P : Patterns)
      AllHaveArg = AllHaveArg && !P.Args.empty();
    if (AllHaveArg) {
      const ArgConstraint &First = Patterns.front().Args.front();
      bool SameKind = true, SameIndex = true;
      for (const CallPattern &P : Patterns) {
        SameKind = SameKind && P.Args.front().K == First.K;
        SameIndex = SameIndex && P.Args.front().Index == First.Index;
      }
      if (!SameKind || !SameIndex) {
        Merged.Args.clear();
      } else if (First.K == ArgConstraint::Kind::StrEquals) {
        std::vector<std::string> AllValues;
        for (const CallPattern &P : Patterns)
          for (const std::string &V : P.Args.front().Values)
            if (std::find(AllValues.begin(), AllValues.end(), V) ==
                AllValues.end())
              AllValues.push_back(V);
        ArgConstraint C;
        C.Index = First.Index;
        std::string Prefix = commonPrefix(AllValues);
        // A prefix generalization is only sound if it does not cover any
        // of the cluster's *added* (secure) values — otherwise the rule
        // would flag the fixed code too.
        bool PrefixCoversAdded = false;
        auto AddedIt = AddedByKey.find(Key);
        if (AddedIt != AddedByKey.end())
          for (const CallPattern &P : AddedIt->second)
            for (const std::string &V :
                 P.Args.empty() ? std::vector<std::string>()
                                : P.Args.front().Values)
              PrefixCoversAdded =
                  PrefixCoversAdded || V.rfind(Prefix, 0) == 0;
        if (AllValues.size() > 1 && Prefix.size() >= 3 &&
            !PrefixCoversAdded) {
          C.K = ArgConstraint::Kind::StrStartsWith;
          C.Values = {Prefix};
        } else {
          C.K = ArgConstraint::Kind::StrEquals;
          C.Values = std::move(AllValues);
        }
        Merged.Args = {std::move(C)};
      } else if (First.K == ArgConstraint::Kind::IntEquals) {
        // The R2 shape: removed small constants, added large ones.
        std::int64_t MinAdded = INT64_MAX;
        auto AddedIt = AddedByKey.find(Key);
        if (AddedIt != AddedByKey.end())
          for (const CallPattern &P : AddedIt->second)
            if (!P.Args.empty() &&
                P.Args.front().K == ArgConstraint::Kind::IntEquals)
              MinAdded = std::min(MinAdded, P.Args.front().IntBound);
        ArgConstraint C;
        C.Index = First.Index;
        if (MinAdded != INT64_MAX) {
          C.K = ArgConstraint::Kind::IntLess;
          C.IntBound = MinAdded;
        } else {
          C.K = ArgConstraint::Kind::IsConstant;
        }
        Merged.Args = {std::move(C)};
      }
      // IsConstant/IsTop/Any: identical across members, keep as is.
    } else {
      Merged.Args.clear();
    }
    Conjuncts.push_back(ObjectFormula::exists(std::move(Merged)));
  }

  // NotExists only for additions shared verbatim by every member, and
  // never contradicting one of the Exists atoms.
  std::set<std::string> ExistsKeys;
  for (const ObjectFormula &F : Conjuncts)
    ExistsKeys.insert(patternKey(TypeName, F.pattern()));
  for (auto &[Key, Patterns] : AddedByKey) {
    if (Patterns.size() != Members.size())
      continue;
    bool AllIdentical = true;
    for (const CallPattern &P : Patterns) {
      AllIdentical =
          AllIdentical && P.Args.size() == Patterns.front().Args.size();
      if (!P.Args.empty() && !Patterns.front().Args.empty())
        AllIdentical = AllIdentical &&
                       P.Args.front().K == Patterns.front().Args.front().K &&
                       P.Args.front().Values ==
                           Patterns.front().Args.front().Values &&
                       P.Args.front().IntBound ==
                           Patterns.front().Args.front().IntBound;
    }
    if (AllIdentical &&
        !ExistsKeys.count(patternKey(TypeName, Patterns.front())))
      Conjuncts.push_back(ObjectFormula::notExists(Patterns.front()));
  }

  bool AnyDiscriminating = false;
  for (const ObjectFormula &F : Conjuncts)
    AnyDiscriminating = AnyDiscriminating || isDiscriminating(F.pattern());
  if (Conjuncts.empty() || !AnyDiscriminating)
    return std::nullopt;
  Rule R;
  R.Id = Id;
  R.Description = "generalized from a cluster of " +
                  std::to_string(Members.size()) + " usage changes of " +
                  TypeName;
  R.Clauses.push_back(
      {TypeName, ObjectFormula::all(std::move(Conjuncts)), false});
  return R;
}

namespace {

std::string describeConstraint(const ArgConstraint &C) {
  std::string Arg = "arg" + std::to_string(C.Index);
  switch (C.K) {
  case ArgConstraint::Kind::Any:
    return Arg + " present";
  case ArgConstraint::Kind::StrEquals:
    return Arg + " = \"" + (C.Values.empty() ? "" : C.Values.front()) + "\"" +
           (C.Values.size() > 1 ? " (or variants)" : "");
  case ArgConstraint::Kind::StrNotEquals:
    return Arg + " != \"" + (C.Values.empty() ? "" : C.Values.front()) + "\"";
  case ArgConstraint::Kind::StrStartsWith:
    return "startsWith(" + Arg + ", \"" +
           (C.Values.empty() ? "" : C.Values.front()) + "\")";
  case ArgConstraint::Kind::IntLess:
    return Arg + " < " + std::to_string(C.IntBound);
  case ArgConstraint::Kind::IntAtLeast:
    return Arg + " >= " + std::to_string(C.IntBound);
  case ArgConstraint::Kind::IntEquals:
    return Arg + " = " + std::to_string(C.IntBound);
  case ArgConstraint::Kind::IsConstant:
    return Arg + " != ⊤ (program constant)";
  case ArgConstraint::Kind::IsTop:
    return Arg + " = ⊤";
  }
  return Arg;
}

std::string describeFormula(const ObjectFormula &F) {
  switch (F.kind()) {
  case ObjectFormula::Kind::Exists:
  case ObjectFormula::Kind::NotExists: {
    std::string Out =
        F.kind() == ObjectFormula::Kind::NotExists ? "¬" : "";
    Out += F.pattern().MethodName;
    Out += "(";
    for (std::size_t I = 0; I < F.pattern().Args.size(); ++I) {
      if (I != 0)
        Out += " ∧ ";
      Out += describeConstraint(F.pattern().Args[I]);
    }
    Out += ")";
    return Out;
  }
  case ObjectFormula::Kind::And:
  case ObjectFormula::Kind::Or: {
    const char *Sep = F.kind() == ObjectFormula::Kind::And ? " ∧ " : " ∨ ";
    std::string Out = "(";
    for (std::size_t I = 0; I < F.children().size(); ++I) {
      if (I != 0)
        Out += Sep;
      Out += describeFormula(F.children()[I]);
    }
    return Out + ")";
  }
  }
  return "";
}

} // namespace

std::string diffcode::rules::describeRule(const Rule &R) {
  std::string Out = R.Id + ": ";
  for (std::size_t I = 0; I < R.Clauses.size(); ++I) {
    if (I != 0)
      Out += " ∧ ";
    if (R.Clauses[I].Negated)
      Out += "¬";
    Out += R.Clauses[I].TypeName + " : " +
           describeFormula(R.Clauses[I].Formula);
  }
  return Out;
}
