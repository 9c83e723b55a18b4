package thermal

import (
	"fmt"
	"math"
)

// The integrator. Sources are constant within a step, so over one step of
// Δ seconds the free nodes (every node but the ambient boundary, which is
// last and pinned at Config.AmbientK) follow the linear system
//
//	C·dθ/dt = P − G·θ,   θ = T − AmbientK,
//
// with C the diagonal capacitances and G the conductance matrix among the
// free nodes (a link to ambient only adds to G's diagonal). Advance applies
// the exact solution, the zero-order-hold update
//
//	θ' = θ∞ + Φ·(θ − θ∞),   θ∞ = G⁻¹·P,   Φ = e^(−C⁻¹G·Δ).
//
// S = C^−½·G·C^−½ is symmetric positive definite, so one Jacobi
// eigendecomposition S = Q·Λ·Qᵀ, made when the network is built, gives
// both Φ = C^−½·Q·e^(−ΛΔ)·Qᵀ·C^½ and G⁻¹ = C^−½·Q·Λ⁻¹·Qᵀ·C^−½. Φ is kept
// for the last Δ only (a replay steps at one Δ), so a step costs two
// matrix-vector products whatever its length.
//
// The update is deterministic on one platform: the sweep order and every
// summation order are fixed, and the decomposition depends only on the
// network constants. Across platforms the last bits may differ, so its
// goldens are pinned on linux/amd64 like every other golden.
//
// Euler and MaxStableStep are the forward-Euler reference that the property
// tests converge onto the exact update; Advance does not use them.

// MaxStableStep returns the largest forward-Euler step (seconds) that keeps
// the explicit integration stable: min over nodes of C_i / sum_j G_ij. Steps
// at or above it oscillate.
func (n *Network) MaxStableStep() float64 {
	min := math.Inf(1)
	for i, c := range n.caps {
		if i == n.ambient || n.gSum[i] == 0 {
			continue
		}
		if s := c / n.gSum[i]; s < min {
			min = s
		}
	}
	return min
}

// Euler advances the network by exactly one forward-Euler step of dt
// seconds under the given per-node heat sources (watts; indices follow the
// node order, entries beyond the sources slice are zero). Callers own
// stability; it is the reference the exact Advance is tested against.
func (n *Network) Euler(sourcesW []float64, dt float64) error {
	if dt <= 0 {
		return fmt.Errorf("thermal: step must be positive, got %g", dt)
	}
	if len(sourcesW) > len(n.temps) {
		return fmt.Errorf("thermal: %d sources for %d nodes", len(sourcesW), len(n.temps))
	}
	if n.flux == nil {
		n.flux = make([]float64, len(n.temps))
	}
	flux := n.flux
	for i := range flux {
		flux[i] = 0
	}
	for _, l := range n.links {
		q := l.g * (n.temps[l.a] - n.temps[l.b]) // W from a to b
		flux[l.a] -= q
		flux[l.b] += q
	}
	for i, p := range sourcesW {
		if i == n.ambient && p != 0 {
			return fmt.Errorf("thermal: heat source on the ambient boundary node")
		}
		flux[i] += p
		n.inputJ += p * dt
	}
	// The ambient boundary absorbs its flux instead of integrating it.
	n.ambientJ += flux[n.ambient] * dt
	for i := range n.temps {
		if i == n.ambient {
			continue
		}
		n.temps[i] += flux[i] * dt / n.caps[i]
	}
	return nil
}

// Advance integrates dt seconds of wall time under constant sources with the
// exact zero-order-hold update, and accounts the step's source heat and the
// heat the boundary absorbs.
func (n *Network) Advance(sourcesW []float64, dt float64) error {
	if math.IsNaN(dt) || math.IsInf(dt, 0) || dt <= 0 {
		return fmt.Errorf("thermal: step must be positive and finite, got %g", dt)
	}
	src, err := n.freeSources(sourcesW)
	if err != nil {
		return err
	}
	if dt != n.phiDt {
		n.setStep(dt)
	}
	f := n.ambient
	n.mulGInv(n.tInf, src)
	for i, t := range n.temps[:f] {
		n.dev[i] = t - n.cfg.AmbientK - n.tInf[i]
	}
	// Heat into the boundary: ∫ toAmb·θ dt = Δ·toAmb·θ∞ + ambRow·(θ − θ∞).
	var toAmbientJ float64
	for i, d := range n.dev {
		toAmbientJ += dt*n.toAmb[i]*n.tInf[i] + n.ambRow[i]*d
	}
	for i := range n.dev {
		row := n.phi[i*f : (i+1)*f][:len(n.dev)]
		v := n.tInf[i]
		for j, d := range n.dev {
			v += row[j] * d
		}
		n.temps[i] = n.cfg.AmbientK + v
	}
	for _, p := range src {
		n.inputJ += p * dt
	}
	n.ambientJ += toAmbientJ
	return nil
}

// EnergyError returns the conservation residual in joules: injected source
// heat minus (stored heat relative to ambient + heat delivered to the
// boundary). Advance integrates the boundary heat from the decomposition
// separately from the temperature update, so the residual is float rounding
// only when both are right; the property suite asserts it stays tiny over
// long runs.
func (n *Network) EnergyError() float64 {
	var stored float64
	for i, t := range n.temps {
		if i == n.ambient {
			continue
		}
		stored += n.caps[i] * (t - n.cfg.AmbientK)
	}
	return n.inputJ - stored - n.ambientJ
}

// InputJ reports the cumulative source heat injected since the last Reset.
func (n *Network) InputJ() float64 { return n.inputJ }

// AmbientJ reports the cumulative heat delivered to the ambient boundary.
func (n *Network) AmbientJ() float64 { return n.ambientJ }

// SteadyState solves the steady-state temperatures under constant sources,
// T = AmbientK + G⁻¹·P, without touching the network's transient state. The
// ambient entry is the boundary temperature.
func (n *Network) SteadyState(sourcesW []float64) ([]float64, error) {
	src, err := n.freeSources(sourcesW)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(n.temps))
	n.mulGInv(out[:n.ambient], src)
	for i := range out {
		out[i] += n.cfg.AmbientK
	}
	return out, nil
}

// freeSources validates a source vector and returns its free-node part.
func (n *Network) freeSources(sourcesW []float64) ([]float64, error) {
	if len(sourcesW) > len(n.temps) {
		return nil, fmt.Errorf("thermal: %d sources for %d nodes", len(sourcesW), len(n.temps))
	}
	if len(sourcesW) > n.ambient {
		if sourcesW[n.ambient] != 0 {
			return nil, fmt.Errorf("thermal: heat source on the ambient boundary node")
		}
		sourcesW = sourcesW[:n.ambient]
	}
	return sourcesW, nil
}

// mulGInv sets dst (one entry per free node) to G⁻¹·src; src may be shorter
// than dst, its missing entries zero.
func (n *Network) mulGInv(dst, src []float64) {
	f := n.ambient
	for i := range dst {
		row := n.gInv[i*f : (i+1)*f][:len(src)]
		var v float64
		for j, p := range src {
			v += row[j] * p
		}
		dst[i] = v
	}
}

// factor builds S = C^−½·G·C^−½ over the free nodes, diagonalizes it, and
// derives G⁻¹ and the per-node conductance to ambient. NewNetwork calls it
// once; every step size reuses it through setStep.
func (n *Network) factor() error {
	f := n.ambient
	n.sqrtC = make([]float64, f)
	for i := range n.sqrtC {
		n.sqrtC[i] = math.Sqrt(n.caps[i])
	}
	n.toAmb = make([]float64, f)
	s := make([]float64, f*f)
	for _, l := range n.links {
		switch {
		case l.b == n.ambient:
			n.toAmb[l.a] += l.g
			s[l.a*f+l.a] += l.g
		case l.a == n.ambient:
			n.toAmb[l.b] += l.g
			s[l.b*f+l.b] += l.g
		default:
			s[l.a*f+l.a] += l.g
			s[l.b*f+l.b] += l.g
			s[l.a*f+l.b] -= l.g
			s[l.b*f+l.a] -= l.g
		}
	}
	for i := 0; i < f; i++ {
		for j := 0; j < f; j++ {
			s[i*f+j] /= n.sqrtC[i] * n.sqrtC[j]
		}
	}
	lambda, q, err := jacobiEigen(s, f)
	if err != nil {
		return err
	}
	for k, l := range lambda {
		if !(l > 0) {
			return fmt.Errorf("thermal: singular conductance matrix (mode %d has eigenvalue %g; disconnected node?)", k, l)
		}
	}
	n.lambda, n.q = lambda, q
	n.gInv = make([]float64, f*f)
	for i := 0; i < f; i++ {
		for j := 0; j < f; j++ {
			var v float64
			for k, l := range lambda {
				v += q[k*f+i] * q[k*f+j] / l
			}
			n.gInv[i*f+j] = v / (n.sqrtC[i] * n.sqrtC[j])
		}
	}
	n.phi = make([]float64, f*f)
	n.ambRow = make([]float64, f)
	n.tInf = make([]float64, f)
	n.dev = make([]float64, f)
	return nil
}

// setStep fixes Φ = C^−½·Q·e^(−ΛΔ)·Qᵀ·C^½ and the boundary-heat row
// toAmb·G⁻¹·C·(I − Φ) for steps of dt seconds. The row is formed in the
// eigenbasis, where G⁻¹·C·(I − Φ) is C^−½·Q·(1 − e^(−ΛΔ))/Λ·Qᵀ·C^½, not
// from Φ itself, so a wrong Φ shows up in EnergyError.
func (n *Network) setStep(dt float64) {
	f := n.ambient
	decay := make([]float64, f) // e^(−λ_k·Δ)
	for k, l := range n.lambda {
		decay[k] = math.Exp(-l * dt)
	}
	for i := 0; i < f; i++ {
		for j := 0; j < f; j++ {
			var v float64
			for k, d := range decay {
				v += n.q[k*f+i] * d * n.q[k*f+j]
			}
			n.phi[i*f+j] = v * n.sqrtC[j] / n.sqrtC[i]
		}
	}
	y := make([]float64, f) // (1 − e^(−λ_k·Δ))/λ_k · (Qᵀ·C^−½·toAmb)_k
	for k, l := range n.lambda {
		var z float64
		for i, g := range n.toAmb {
			z += n.q[k*f+i] * g / n.sqrtC[i]
		}
		y[k] = z * -math.Expm1(-l*dt) / l
	}
	for j := 0; j < f; j++ {
		var v float64
		for k, yk := range y {
			v += n.q[k*f+j] * yk
		}
		n.ambRow[j] = v * n.sqrtC[j]
	}
	n.phiDt = dt
}

// jacobiEigen diagonalizes the symmetric n×n row-major matrix a in place by
// cyclic Jacobi rotations and returns its eigenvalues and eigenvectors
// (row k of the row-major v is the eigenvector of lambda[k]). A rotation is skipped
// once its off-diagonal entry is negligible next to its two diagonal
// entries, |a_pq| ≤ jacobiTol·√|a_pp·a_qq|: that relative threshold keeps
// the small eigenvalues (the slow interposer mode) accurate and stops the
// sweeps as soon as one rotates nothing.
func jacobiEigen(a []float64, n int) (lambda, v []float64, err error) {
	const (
		jacobiTol = 1e-15
		maxSweeps = 50
	)
	v = make([]float64, n*n)
	for i := 0; i < n; i++ {
		v[i*n+i] = 1
	}
	for sweep := 0; sweep < maxSweeps; sweep++ {
		rotated := false
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := a[p*n+q]
				app, aqq := a[p*n+p], a[q*n+q]
				if math.Abs(apq) <= jacobiTol*math.Sqrt(math.Abs(app*aqq)) {
					continue
				}
				rotated = true
				theta := (aqq - app) / (2 * apq)
				t := 1 / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				if theta < 0 {
					t = -t
				}
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				// Rotate rows p and q, then mirror them into columns p and q.
				rp, rq := a[p*n:(p+1)*n], a[q*n:(q+1)*n]
				for r, x := range rp {
					y := rq[r]
					rp[r], rq[r] = c*x-s*y, s*x+c*y
				}
				rp[p], rq[q] = app-t*apq, aqq+t*apq
				rp[q], rq[p] = 0, 0
				for r := 0; r < n; r++ {
					a[r*n+p], a[r*n+q] = rp[r], rq[r]
				}
				vp, vq := v[p*n:(p+1)*n], v[q*n:(q+1)*n]
				for r, x := range vp {
					y := vq[r]
					vp[r], vq[r] = c*x-s*y, s*x+c*y
				}
			}
		}
		if !rotated {
			lambda = make([]float64, n)
			for i := range lambda {
				lambda[i] = a[i*n+i]
			}
			return lambda, v, nil
		}
	}
	return nil, nil, fmt.Errorf("thermal: Jacobi eigendecomposition did not converge in %d sweeps", maxSweeps)
}

// SetTemps overwrites the node temperatures (a warm-start convenience for
// steppers that pre-converge to an idle equilibrium). The slice must cover
// every node; the ambient entry is forced back to the boundary temperature.
func (n *Network) SetTemps(t []float64) error {
	if len(t) != len(n.temps) {
		return fmt.Errorf("thermal: %d temps for %d nodes", len(t), len(n.temps))
	}
	copy(n.temps, t)
	n.temps[n.ambient] = n.cfg.AmbientK
	return nil
}
