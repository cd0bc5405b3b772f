// Bounded-variable revised simplex with a factorized basis.
//
// The tableau solver (simplex.hpp) carries a dense m × (nonbasic columns)
// array through every pivot — O(m·n) work per pivot and a bound row per
// box-constrained variable, which is what makes the ≥5k-link attack LPs
// crawl. The revised method keeps only:
//   * the constraint matrix column-wise sparse (never modified),
//   * an LU factorization of the m×m basis, refreshed every
//     kRefactorStride basis changes, with product-form eta updates between
//     refactorizations (FTRAN: LU solve then etas forward; BTRAN: etas in
//     reverse then the transposed LU),
//   * upper/lower bounds handled natively — a box constraint is a bound
//     flip, not a tableau row.
// Per-pivot cost is O(m² + nnz) instead of O(m·n_total), and m counts only
// the model's constraints, not its bounded variables.
//
// Contract: identical to lp::solve — same Model in, same Solution /
// SolveStatus out, same basis certificate on iteration/time limits (basis[i]
// = column basic in row i, in this solver's column numbering: structurals
// 0..n-1, then one slack per row, then artificials). Degeneracy handling
// mirrors the tableau: Dantzig until the objective stalls, then Bland.
// Differential agreement with the tableau is enforced by the
// lp_revised_simplex_matches_tableau property.

#pragma once

#include "lp/model.hpp"
#include "lp/simplex.hpp"

namespace scapegoat::lp {

// Solves `model` with the revised simplex, whatever its size. Drop-in
// replacement for solve_tableau; normally reached through lp::solve's size
// switch rather than called directly.
Solution solve_revised(const Model& model, const SimplexOptions& options = {});

}  // namespace scapegoat::lp
