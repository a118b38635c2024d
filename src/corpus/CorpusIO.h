//===- corpus/CorpusIO.h - Corpus persistence ------------------------------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reads and writes corpora as plain directory trees, so the pipeline can
/// run over *real* mined histories (exported from git) as easily as over
/// generated ones. Layout:
///
///   <root>/<project>/project.meta          key=value metadata
///   <root>/<project>/head/<File.java>      HEAD state
///   <root>/<project>/commits/c<NNNN>/      one directory per commit
///       kind.txt                           ground-truth kind (optional)
///       file.txt                           changed file name
///       old.java / new.java                the two versions
///
/// Exporting a git history into this layout is a one-liner per commit:
///   git show <rev>^:<path> > old.java ; git show <rev>:<path> > new.java
///
//===----------------------------------------------------------------------===//

#ifndef DIFFCODE_CORPUS_CORPUSIO_H
#define DIFFCODE_CORPUS_CORPUSIO_H

#include "corpus/RepoModel.h"

#include <optional>
#include <string>

namespace diffcode {
namespace corpus {

/// Writes \p C under \p RootDir (created if missing). Returns false and
/// sets \p Error on I/O failure.
bool writeCorpus(const Corpus &C, const std::string &RootDir,
                 std::string *Error = nullptr);

/// Loads a corpus from \p RootDir; nullopt (with \p Error) on failure.
/// Unknown files are ignored; missing optional pieces default sensibly.
/// A piece that exists but cannot be read or resolved — a symlink loop,
/// a directory where a file belongs — is a failure naming its path,
/// never a silently empty file or a partial corpus.
/// Every file goes through readFileContents, so a batch ingest maps
/// sources straight from the page cache instead of double-buffering
/// through stream internals.
std::optional<Corpus> readCorpus(const std::string &RootDir,
                                 std::string *Error = nullptr);

/// Reads one file's bytes. Regular files are mmap'd and copied out in a
/// single pre-sized allocation (no stream double-buffering); anything
/// not mappable — FIFOs, special files, zero-stat-size files — falls
/// back to a chunked read loop that tolerates short reads, so piped
/// input is read to EOF rather than truncated at the first partial
/// read. nullopt on open/read failure (a mid-stream error never yields
/// a plausible-looking prefix).
std::optional<std::string> readFileContents(const std::string &Path);

} // namespace corpus
} // namespace diffcode

#endif // DIFFCODE_CORPUS_CORPUSIO_H
