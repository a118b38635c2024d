//===- support/Interner.cpp ------------------------------------------------===//

#include "support/Interner.h"

#include <mutex>

using namespace diffcode;
using namespace diffcode::support;
using diffcode::usage::FeaturePath;
using diffcode::usage::NodeLabel;

std::vector<std::string> Interner::labelUnits(const NodeLabel &Label) {
  std::vector<std::string> Out;
  switch (Label.K) {
  case NodeLabel::Kind::Root:
  case NodeLabel::Kind::Method:
    // Type names and method signatures are single units: swapping one
    // method for another costs exactly one modification.
    Out.push_back(Label.str());
    return Out;
  case NodeLabel::Kind::Arg:
    Out.push_back("arg" + std::to_string(Label.ArgIndex));
    if (Label.ValueIsString) {
      for (char C : Label.Text)
        Out.push_back(std::string(1, C));
    } else {
      Out.push_back(Label.Text);
    }
    return Out;
  }
  return Out;
}

LabelId Interner::label(const NodeLabel &Label) {
  {
    std::shared_lock<std::shared_mutex> Lock(Mutex);
    auto It = LabelIds.find(Label);
    if (It != LabelIds.end())
      return It->second;
  }
  std::unique_lock<std::shared_mutex> Lock(Mutex);
  auto [It, Inserted] =
      LabelIds.emplace(Label, static_cast<LabelId>(Labels.size()));
  if (Inserted) {
    Labels.push_back(Label);
    Units.push_back(labelUnits(Label));
  }
  return It->second;
}

PathId Interner::path(const FeaturePath &Path) {
  std::vector<LabelId> Ids;
  Ids.reserve(Path.size());
  for (const NodeLabel &Label : Path)
    Ids.push_back(label(Label));
  return path(std::move(Ids));
}

PathId Interner::path(std::vector<LabelId> Ids) {
  {
    std::shared_lock<std::shared_mutex> Lock(Mutex);
    auto It = PathIds.find(Ids);
    if (It != PathIds.end())
      return It->second;
  }
  std::unique_lock<std::shared_mutex> Lock(Mutex);
  auto [It, Inserted] =
      PathIds.emplace(std::move(Ids), static_cast<PathId>(Paths.size()));
  if (Inserted)
    Paths.push_back(It->first);
  return It->second;
}

PathId Interner::child(PathId Parent, LabelId Label) {
  const std::uint64_t Key = std::uint64_t(Parent) << 32 | Label;
  {
    std::shared_lock<std::shared_mutex> Lock(Mutex);
    auto It = Children.find(Key);
    if (It != Children.end())
      return It->second;
  }
  std::unique_lock<std::shared_mutex> Lock(Mutex);
  auto [It, Inserted] = Children.emplace(Key, 0);
  if (!Inserted)
    return It->second;
  // The sequence may already be interned through path().
  std::vector<LabelId> Ids;
  if (Parent != NoPath) {
    const std::vector<LabelId> &Prefix = Paths[Parent];
    Ids.reserve(Prefix.size() + 1);
    Ids.assign(Prefix.begin(), Prefix.end());
  }
  Ids.push_back(Label);
  auto [PathIt, NewPath] =
      PathIds.emplace(std::move(Ids), static_cast<PathId>(Paths.size()));
  if (NewPath)
    Paths.push_back(PathIt->first);
  It->second = PathIt->second;
  return It->second;
}

const NodeLabel &Interner::labelAt(LabelId Id) const {
  std::shared_lock<std::shared_mutex> Lock(Mutex);
  return Labels[Id];
}

const std::vector<LabelId> &Interner::labelsOf(PathId Id) const {
  std::shared_lock<std::shared_mutex> Lock(Mutex);
  return Paths[Id];
}

const std::vector<std::string> &Interner::unitsOf(LabelId Id) const {
  std::shared_lock<std::shared_mutex> Lock(Mutex);
  return Units[Id];
}

std::string Interner::pathString(PathId Id) const {
  std::shared_lock<std::shared_mutex> Lock(Mutex);
  std::string Out;
  const std::vector<LabelId> &Ids = Paths[Id];
  for (std::size_t I = 0; I < Ids.size(); ++I) {
    if (I != 0)
      Out += ' ';
    Out += Labels[Ids[I]].str();
  }
  return Out;
}

std::size_t Interner::labelCount() const {
  std::shared_lock<std::shared_mutex> Lock(Mutex);
  return Labels.size();
}

std::size_t Interner::pathCount() const {
  std::shared_lock<std::shared_mutex> Lock(Mutex);
  return Paths.size();
}

std::size_t Interner::memoryBytes() const {
  std::shared_lock<std::shared_mutex> Lock(Mutex);
  std::size_t Bytes = 0;
  for (const NodeLabel &L : Labels)
    Bytes += sizeof(NodeLabel) + L.Text.capacity();
  for (const std::vector<std::string> &U : Units) {
    Bytes += sizeof(U) + U.capacity() * sizeof(std::string);
    for (const std::string &S : U)
      Bytes += S.capacity();
  }
  for (const std::vector<LabelId> &P : Paths)
    Bytes += sizeof(P) + P.capacity() * sizeof(LabelId);
  // Lookup maps: one node per entry (key storage counted above for
  // labels; path keys are shared with the arena copies, count them once
  // more as the map owns its own key copy).
  for (const auto &[Key, Id] : PathIds)
    Bytes += 3 * sizeof(void *) + sizeof(PathId) + sizeof(Key) +
             Key.capacity() * sizeof(LabelId);
  for (const auto &[Key, Id] : LabelIds)
    Bytes += 3 * sizeof(void *) + sizeof(LabelId) + sizeof(NodeLabel) +
             Key.Text.capacity();
  // Child index: one hash node per entry plus its bucket slot.
  Bytes += Children.size() *
               (2 * sizeof(void *) + sizeof(std::uint64_t) + sizeof(PathId)) +
           Children.bucket_count() * sizeof(void *);
  return Bytes;
}
