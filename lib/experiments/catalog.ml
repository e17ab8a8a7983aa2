type entry = {
  id : string;
  summary : string;
  run : Common.ctx -> Common.table;
}

let all =
  [
    { id = "table1"; summary = "Model notation glossary"; run = Table1.run };
    {
      id = "fig01";
      summary = "Ware et al. vs actual BBR share (1v1, 50 Mbps)";
      run = Fig01.run;
    };
    {
      id = "fig03";
      summary = "2-flow model validation over 4 link/RTT settings";
      run = Fig03.run;
    };
    {
      id = "fig04";
      summary = "Multi-flow validation (5v5, 10v10)";
      run = Fig04.run;
    };
    {
      id = "fig05";
      summary = "Diminishing returns as BBR's flow share grows";
      run = Fig05.run;
    };
    {
      id = "fig06";
      summary = "NE geometry from the model (schematic realized)";
      run = Fig06.run;
    };
    {
      id = "fig07";
      summary = "BBR/BBRv2/Copa/Vivace vs CUBIC bandwidth shares";
      run = Fig07.run;
    };
    {
      id = "fig08";
      summary = "Throughput and queuing delay vs CCA distribution";
      run = Fig08.run;
    };
    {
      id = "fig09";
      summary = "Predicted vs observed NE, 50 flows, 6 settings";
      run = Fig09.run;
    };
    {
      id = "fig10";
      summary = "NE with heterogeneous RTTs (30 flows)";
      run = Fig10.run;
    };
    {
      id = "fig11";
      summary = "NE between CUBIC and BBRv2 (50 flows)";
      run = Fig11.run;
    };
    {
      id = "fig12";
      summary = "Ultra-deep buffers: model validity limit";
      run = Fig12.run;
    };
    {
      id = "evolve";
      summary = "Population-scale CCA adoption dynamics";
      run = Adoption.run;
    };
    {
      id = "fluidgrid";
      summary = "Fluid vs ODE analytic-backend differential grid";
      run = Fluidgrid.run;
    };
    {
      id = "workload";
      summary = "Long flows under open-loop web-object churn (FCTs)";
      run = Workload_exp.run;
    };
    {
      id = "ext-red";
      summary = "Extension: CUBIC vs BBR under a RED AQM";
      run = Ext_red.run;
    };
    {
      id = "ext-utility";
      summary = "Extension: NE under throughput-minus-delay utilities";
      run = Ext_utility.run;
    };
    {
      id = "ext-internals";
      summary = "Extension: model's internal quantities vs measured";
      run = Ext_internals.run;
    };
    {
      id = "ext-2flow";
      summary = "Extension: the 2-flow CUBIC/BBR game (APNet'21)";
      run = Ext_two_flow_game.run;
    };
  ]

let find id = List.find_opt (fun e -> e.id = id) all
let ids () = List.map (fun e -> e.id) all
