package dataset

import "math"

// Scaler transforms feature vectors; fitted on training data and applied to
// train and test alike so no test statistics leak into training.
type Scaler interface {
	// Transform maps a raw feature vector to scaled space (new slice).
	Transform(x []float64) []float64
	// Inverse maps a scaled vector back to raw space (new slice).
	Inverse(x []float64) []float64
}

// StandardScaler centers each feature to zero mean and unit variance.
type StandardScaler struct {
	Mean, Std []float64
}

// FitStandard fits a StandardScaler on d. Zero-variance columns get Std 1
// so they map to a constant rather than NaN.
func FitStandard(d *Dataset) *StandardScaler {
	p := d.NumFeatures()
	s := &StandardScaler{Mean: make([]float64, p), Std: make([]float64, p)}
	n := float64(d.Len())
	if n == 0 {
		for j := range s.Std {
			s.Std[j] = 1
		}
		return s
	}
	for _, row := range d.X {
		for j, v := range row {
			s.Mean[j] += v
		}
	}
	for j := range s.Mean {
		s.Mean[j] /= n
	}
	for _, row := range d.X {
		for j, v := range row {
			dv := v - s.Mean[j]
			s.Std[j] += dv * dv
		}
	}
	for j := range s.Std {
		s.Std[j] = math.Sqrt(s.Std[j] / n)
		if s.Std[j] == 0 {
			s.Std[j] = 1
		}
	}
	return s
}

// Transform implements Scaler.
func (s *StandardScaler) Transform(x []float64) []float64 {
	out := make([]float64, len(x))
	s.TransformInto(out, x)
	return out
}

// TransformInto is Transform writing into dst (len(dst) == len(x)).
func (s *StandardScaler) TransformInto(dst, x []float64) {
	for j, v := range x {
		dst[j] = (v - s.Mean[j]) / s.Std[j]
	}
}

// Inverse implements Scaler.
func (s *StandardScaler) Inverse(x []float64) []float64 {
	out := make([]float64, len(x))
	for j, v := range x {
		out[j] = v*s.Std[j] + s.Mean[j]
	}
	return out
}

// MinMaxScaler maps each feature to [0, 1] based on the fitted range.
type MinMaxScaler struct {
	Min, Max []float64
}

// FitMinMax fits a MinMaxScaler on d. Constant columns map to 0.
func FitMinMax(d *Dataset) *MinMaxScaler {
	p := d.NumFeatures()
	s := &MinMaxScaler{Min: make([]float64, p), Max: make([]float64, p)}
	for j := 0; j < p; j++ {
		s.Min[j] = math.Inf(1)
		s.Max[j] = math.Inf(-1)
	}
	for _, row := range d.X {
		for j, v := range row {
			if v < s.Min[j] {
				s.Min[j] = v
			}
			if v > s.Max[j] {
				s.Max[j] = v
			}
		}
	}
	if d.Len() == 0 {
		for j := 0; j < p; j++ {
			s.Min[j], s.Max[j] = 0, 1
		}
	}
	return s
}

// Transform implements Scaler.
func (s *MinMaxScaler) Transform(x []float64) []float64 {
	out := make([]float64, len(x))
	for j, v := range x {
		span := s.Max[j] - s.Min[j]
		if span == 0 {
			out[j] = 0
			continue
		}
		out[j] = (v - s.Min[j]) / span
	}
	return out
}

// Inverse implements Scaler.
func (s *MinMaxScaler) Inverse(x []float64) []float64 {
	out := make([]float64, len(x))
	for j, v := range x {
		out[j] = v*(s.Max[j]-s.Min[j]) + s.Min[j]
	}
	return out
}

// Apply returns a copy of d with every row passed through the scaler.
func Apply(d *Dataset, s Scaler) *Dataset {
	out := d.Clone()
	for i, row := range out.X {
		out.X[i] = s.Transform(row)
	}
	return out
}
