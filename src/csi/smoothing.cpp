#include "csi/smoothing.hpp"

namespace spotfi {

std::size_t smoothed_rows(const SmoothingConfig& cfg) {
  return cfg.sub_len * cfg.ant_len;
}

std::size_t smoothed_cols(std::size_t n_antennas, std::size_t n_subcarriers,
                          const SmoothingConfig& cfg) {
  SPOTFI_EXPECTS(cfg.ant_len >= 1 && cfg.ant_len <= n_antennas,
                 "subarray antenna length out of range");
  SPOTFI_EXPECTS(cfg.sub_len >= 1 && cfg.sub_len <= n_subcarriers,
                 "subarray subcarrier length out of range");
  return (n_subcarriers - cfg.sub_len + 1) * (n_antennas - cfg.ant_len + 1);
}

namespace {

void fill_smoothed(ConstCMatrixView csi, const SmoothingConfig& cfg,
                   CMatrixView x) {
  const std::size_t m_ant = csi.rows();
  const std::size_t n_sub = csi.cols();
  const std::size_t sub_shifts = n_sub - cfg.sub_len + 1;
  std::size_t col = 0;
  for (std::size_t da = 0; da + cfg.ant_len <= m_ant; ++da) {
    for (std::size_t ds = 0; ds < sub_shifts; ++ds, ++col) {
      std::size_t row = 0;
      for (std::size_t a = 0; a < cfg.ant_len; ++a) {
        for (std::size_t s = 0; s < cfg.sub_len; ++s, ++row) {
          x(row, col) = csi(da + a, ds + s);
        }
      }
    }
  }
}

}  // namespace

CMatrix smoothed_csi(const CMatrix& csi, const SmoothingConfig& cfg) {
  const std::size_t rows = smoothed_rows(cfg);
  const std::size_t cols = smoothed_cols(csi.rows(), csi.cols(), cfg);
  CMatrix x(rows, cols);
  fill_smoothed(csi.view(), cfg, x.view());
  return x;
}

CMatrixView smoothed_csi(ConstCMatrixView csi, Workspace& ws,
                         const SmoothingConfig& cfg) {
  const std::size_t rows = smoothed_rows(cfg);
  const std::size_t cols = smoothed_cols(csi.rows(), csi.cols(), cfg);
  CMatrixView x = workspace_matrix<cplx>(ws, rows, cols);
  fill_smoothed(csi, cfg, x);
  return x;
}

}  // namespace spotfi
