// Binary serialization for trained artifacts.
//
// A mined multivariate relationship graph holds hundreds of trained NMT
// models; persisting it lets the offline training phase (Algorithm 1) run
// once while detection, knowledge-discovery and benchmark tooling reload the
// artifact. Two layouts share the "DESM" magic + u32 version discipline, and
// each reader accepts exactly one version:
//
//  * v3 stream — a simple tagged little-endian stream:
//      magic "DESM" | u32 version=3 | payload | "CRC1" u32 crc
//    Matrices are dims + raw f32; vocabularies are token lists; models are
//    vocabularies + config + parameter tensors in registry order. Used only
//    for pair-model checkpoint sidecars and, without the header and trailer,
//    for the v4 layout's per-edge meta blobs.
//  * v4 mapped — the page-aligned framework layout (io/artifact_map.h):
//    fixed 64-byte header, per-edge meta blobs, 64-byte-aligned raw f32
//    weight regions on 4096-byte pages, and a fixed-offset TOC, so serving
//    mmap()s the file and scores through zero-copy weight views (DESIGN.md
//    §15). Every framework is written and read in this layout.
//
// Artifacts are written crash-safely: the full payload is staged to a temp
// file in the destination directory, flushed and fsynced, then atomically
// renamed over the target, so a crash can never leave a half-written
// artifact under the final name. Corruption never loads silently: v3 streams
// verify the whole-file CRC trailer eagerly, v4 verifies header + TOC CRCs
// at open and each edge's meta/weight CRCs on first touch.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "core/encryption.h"
#include "core/framework.h"
#include "core/mvr_graph.h"
#include "nmt/translation.h"
#include "tensor/matrix.h"
#include "text/vocabulary.h"

namespace desmine::io {

/// The stream layout's version: checkpoint sidecars and the v4 TOC's
/// per-edge meta blobs. read_header accepts this version only.
inline constexpr std::uint32_t kStreamArtifactVersion = 3;

// ---- primitive + component (de)serializers, exposed for tests -------------

void write_matrix(std::ostream& os, tensor::ConstMatrixView m);
tensor::Matrix read_matrix(std::istream& is);

void write_vocabulary(std::ostream& os, const text::Vocabulary& v);
text::Vocabulary read_vocabulary(std::istream& is);

void write_seq2seq_config(std::ostream& os, const nmt::Seq2SeqConfig& c);
nmt::Seq2SeqConfig read_seq2seq_config(std::istream& is);

/// Stream header: magic "DESM" + kStreamArtifactVersion.
void write_header(std::ostream& os);

/// Validate the magic and the version (exactly kStreamArtifactVersion);
/// throws RuntimeError otherwise.
void read_header(std::istream& is);

void write_translation_model(std::ostream& os, nmt::TranslationModel& model,
                             const nmt::Seq2SeqConfig& config);
nmt::TranslationModel read_translation_model(std::istream& is);

void write_encrypter(std::ostream& os, const core::SensorEncrypter& enc);
core::SensorEncrypter read_encrypter(std::istream& is);

// ---- crash-safe file primitives -------------------------------------------

/// Write `payload` verbatim to `path` via temp file + flush + fsync + atomic
/// rename (+ directory fsync). Throws RuntimeError on any I/O failure; on
/// failure the previous contents of `path` (if any) are untouched. Used for
/// any file that must appear all-or-nothing (quarantine journals, traces).
void write_file_atomic(const std::string& path, std::string_view payload);

/// Write `payload` + CRC-32 trailer to `path` via write_file_atomic. Throws
/// RuntimeError on any I/O failure; on failure the previous contents of
/// `path` (if any) are untouched.
void write_artifact_file(const std::string& path, std::string_view payload);

/// Read a whole stream artifact file, verify its CRC trailer and return the
/// payload without it. Any truncation or corruption, the header's version
/// field included, raises RuntimeError.
std::string read_artifact_file(const std::string& path);

// ---- single pair-model artifacts (checkpoint sidecars) --------------------

/// Persist one trained pair model as a standalone crash-safe v3 stream
/// artifact (used by the miner's checkpoint journal): sidecars are single
/// models, which gain nothing from pages.
void save_pair_model(const std::string& path, nmt::TranslationModel& model,
                     const nmt::Seq2SeqConfig& config);

/// Reload a pair-model artifact written by save_pair_model. Throws
/// RuntimeError if the file is missing, truncated, or corrupt.
nmt::TranslationModel load_pair_model(const std::string& path);

// ---- whole-framework snapshot ----------------------------------------------

/// Persist a fitted framework (window config, encrypter, graph + models) as
/// a v4 mapped artifact so detection can resume in another process. Throws
/// RuntimeError on I/O failure and PreconditionError if the framework is not
/// fitted.
void save_framework(const core::Framework& framework, const std::string& path);

/// Reload a v4 snapshot through io::ArtifactMap (header + TOC verified,
/// weights mapped and bound as zero-copy views). The returned framework is
/// fitted, ready to detect, and scores bit-identically to the one saved.
/// Any other version, and any corruption, raises io::ArtifactError.
/// Detector/miner settings not needed for inference are restored from
/// `config_overlay` (pass the same FrameworkConfig used at save time, or a
/// default one and adjust the detector band afterwards).
core::Framework load_framework(const std::string& path,
                               core::FrameworkConfig config_overlay = {});

}  // namespace desmine::io
