#pragma once

#include <iosfwd>
#include <string>

#include "common/status.hpp"
#include "svm/linear_svm.hpp"

namespace pcnn::svm {

/// Serialization of a trained linear SVM (weights + bias; the training
/// parameters ride along for provenance, a loaded model is inference-only
/// until retrained).
///
/// The wire format ("PSVM" v2) is a chunked binary container over the
/// shared io::Writer/io::Reader layer: bitwise-exact double round trips,
/// bounds-checked loads. It is the only format read; the retired v1
/// whitespace text fails at the magic check as kDataLoss.

/// Status-returning save: kFailedPrecondition for an untrained model,
/// kDataLoss on write failure.
Status trySaveModel(const LinearSvm& model, std::ostream& out);
Status trySaveModelFile(const LinearSvm& model, const std::string& path);

/// Bounds-checked load: a corrupt stream yields kDataLoss, a header
/// declaring an implausibly large weight vector yields kOutOfRange before
/// anything is allocated, and so does a NaN/infinite weight or bias term
/// or a non-positive C.
StatusOr<LinearSvm> tryLoadModel(std::istream& in);
StatusOr<LinearSvm> tryLoadModelFile(const std::string& path);

}  // namespace pcnn::svm
